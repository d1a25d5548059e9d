"""Acceptance suite: one test per criterion, printing a PASS/FAIL line each.

Two sub-clauses are implemented verbatim and are expected to fail; the
analysis of why they cannot pass is in the project notes:

* criterion 2(b)'s "within 1% of alpha/n once (j pi)^2 > 100 alpha/n": the
  relative gap at that threshold is ~(1+n)/(100 n), i.e. 21% for the quoted
  Turing-case parameters and > 1% for every n below ~98;
* criterion 4's "log(b - 1/c_nu) slope = lambda2": near the node b is slaved
  to the weak direction, b - 1/c_nu = ((n+1)/n)/(lambda2-2) a^2 + o(a^2), so
  the tail slope is exactly 2 for every parameter set in the sweep.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

import shearlab as sl
from shearlab.stability import UNSTABLE, STABLE

REPO = Path(__file__).resolve().parents[1]


def _report(criterion, ok, detail):
    print(f"\nACCEPTANCE criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


@pytest.fixture(scope="module")
def showcase_bundle():
    p = sl.PlanarParams(n=0.1, alpha=0.5, nu=0.1)
    path = sl.reparametrize(sl.shoot_heteroclinic(p), 1.88)
    prof = sl.reconstruct(path)
    params = sl.MaterialParams(n=0.1, alpha=0.5, kappa=0.0, theta0=10.0)
    sol = sl.LocalizedSolution(params=params,
                               scaling=sl.ScalingParams(lam=0.1, sigma0=1.88),
                               profile=prof)
    return p, path, prof, sol


def test_criterion_1_eigenvalue_identities():
    """200 random (n, alpha, k, j): root residuals < 1e-9, identities 1e-10, < 1 s."""
    start = time.perf_counter()
    rng = np.random.default_rng(261)
    worst_res, worst_sum, worst_prod = 0.0, 0.0, 0.0
    for _ in range(200):
        n = rng.uniform(0.01, 2.0)
        alpha = rng.uniform(0.01, 2.0)
        k = rng.uniform(0.0, 2.0)
        j = int(rng.integers(0, 65))
        params = sl.MaterialParams(n=n, alpha=alpha)
        m = sl.mode_eigen(params, k, j)
        x = (j * math.pi) ** 2
        b = alpha + (n + k) * x
        c = n * k * x * x - alpha * x
        for lam in (m.lambda_minus, m.lambda_plus):
            res = abs(lam * lam + b * lam + c) / max(1.0, lam * lam)
            worst_res = max(worst_res, res)
        ssum = abs((m.lambda_plus + m.lambda_minus) + b) / max(1.0, abs(b))
        sprod = abs(m.lambda_plus * m.lambda_minus - c) / max(1.0, abs(c))
        worst_sum = max(worst_sum, ssum)
        worst_prod = max(worst_prod, sprod)
    wall = time.perf_counter() - start
    ok = worst_res < 1e-9 and worst_sum < 1e-10 and worst_prod < 1e-10 and wall < 1.0
    _report(1, ok, f"max residual {worst_res:.2e}, sum {worst_sum:.2e}, "
                   f"product {worst_prod:.2e}, wall {wall:.2f} s")
    assert worst_res < 1e-9
    assert worst_sum < 1e-10 and worst_prod < 1e-10
    assert wall < 1.0


def test_criterion_2_regime_reproduction():
    """(a) Hadamard rate sqrt(alpha) at j=1000; (b) Turing monotone/bounded;
    (c) classification flips exactly at n k (j pi)^2 = alpha."""
    # (a)
    devs = []
    for alpha in (0.5, 1.0, 2.0):
        lam = sl.mode_eigen(sl.MaterialParams(n=0.0, alpha=alpha), 0.0, 1000).lambda_plus
        devs.append(abs(lam / (1000 * math.pi) / math.sqrt(alpha) - 1.0))
    ok_a = max(devs) < 1e-3
    # (b) monotone increasing, bounded by alpha/n
    n, alpha = 0.05, 0.5
    params = sl.MaterialParams(n=n, alpha=alpha)
    lams = np.array([sl.mode_eigen(params, 0.0, j).lambda_plus for j in range(1, 257)])
    ok_b = bool(np.all(np.diff(lams) > 0) and np.all(lams < alpha / n))
    # (c)
    j = 3
    kstar = alpha / (n * (j * math.pi) ** 2)
    below = sl.mode_eigen(params, kstar * (1 - 1e-9), j).classification
    above = sl.mode_eigen(params, kstar * (1 + 1e-9), j).classification
    ok_c = below == UNSTABLE and above == STABLE
    ok = ok_a and ok_b and ok_c
    _report("2(a,b,c)", ok, f"Hadamard dev {max(devs):.2e}; Turing monotone+bounded "
                            f"{ok_b}; threshold flip {ok_c}")
    assert ok_a and ok_b and ok_c


def test_criterion_2b_one_percent_clause():
    """Verbatim: lambda_{j,+} within 1% of alpha/n for every (j pi)^2 > 100 alpha/n.

    Unattainable: the relative gap at the threshold is ~(1+n)/(100 n) (21%
    here); 1% is first reached at (j pi)^2 ~ (alpha/n^2)(98.01 + 99 n).
    """
    n, alpha = 0.05, 0.5
    params = sl.MaterialParams(n=n, alpha=alpha)
    xthr = 100.0 * alpha / n
    j0 = int(np.ceil(math.sqrt(xthr) / math.pi))
    gaps = []
    for j in range(j0, 257):
        if (j * math.pi) ** 2 > xthr:
            lam = sl.mode_eigen(params, 0.0, j).lambda_plus
            gaps.append(abs(lam - alpha / n) / (alpha / n))
    worst = max(gaps)
    ok = worst <= 0.01
    _report("2(b) 1%-clause", ok,
            f"worst relative gap past (j pi)^2 > 100 alpha/n is {worst:.1%} "
            f"(first mode j={j0}); bound demanded 1%")
    assert worst <= 0.01, (
        f"lambda_j+ is {worst:.1%} below alpha/n just past the stated threshold; "
        "the 1% gap is first reached at (j pi)^2 ~ (alpha/n^2)(98.01+99n)")


def test_criterion_3_closed_form_oracles():
    """Residuals of both closed forms < 1e-10 sup (with FD-error certification)."""
    start = time.perf_counter()
    sup_all = []
    ev = sl.equilibrium_closed_form(1.5, 0.1, 0.5)
    rep = sl.ode_residual(ev, 0.0, 0.1, 0.5, xi=np.geomspace(0.1, 100.0, 5001))
    sup_all.append(max(rep.sup) + rep.fd_error_estimate)
    out = sl.scale_invariant_solution(0.1, 0.5)
    for nu in (0.05, 0.1, 1.0):
        rep = sl.ode_residual(out, nu, 0.1, 0.5, xi=np.geomspace(0.1, 100.0, 5001))
        sup_all.append(max(rep.sup) + rep.fd_error_estimate)
    wall = time.perf_counter() - start
    ok = max(sup_all) < 1e-10 and wall < 1.0
    _report(3, ok, f"worst certified sup residual {max(sup_all):.2e}, wall {wall:.2f} s")
    assert max(sup_all) < 1e-10
    assert wall < 1.0


SWEEP = [(n, alpha, nu) for n in (0.05, 0.1) for alpha in (0.5, 1.0)
         for nu in (0.05, 0.1, 0.5)]


@pytest.fixture(scope="module")
def sweep_orbits():
    start = time.perf_counter()
    orbits = {key: sl.shoot_heteroclinic(sl.PlanarParams(*key)) for key in SWEEP}
    return orbits, time.perf_counter() - start


def test_criterion_4_heteroclinic_sweep(sweep_orbits):
    """Shooter reaches P at 1e-8 inside R with monotone a; lambda1 slope 1 +- 2%."""
    orbits, wall = sweep_orbits
    worst_slope = 0.0
    for (n, alpha, nu), path in orbits.items():
        p = path.params
        dist = math.hypot(path.a[0], path.b[0] - 1.0 / p.c_nu)
        assert dist <= 1.001e-8
        assert np.all(path.a ** 2 <= path.b + 1e-9)
        assert np.all(path.b <= 1.0 + 1e-9)
        assert np.all(np.diff(path.a) > 0)
        window = path.a <= 10.0 * path.a[0]
        slope = np.polyfit(path.eta[window], np.log(path.a[window]), 1)[0]
        worst_slope = max(worst_slope, abs(slope - 1.0))
    ok = worst_slope < 0.02 and wall < 10.0
    _report("4 (existence, region, lambda1)", ok,
            f"12 orbits, worst lambda1 slope error {worst_slope:.2e}, "
            f"wall {wall:.1f} s")
    assert worst_slope < 0.02
    assert wall < 10.0


def test_criterion_4_lambda2_tail_slope(sweep_orbits):
    """Verbatim: log(b - 1/c_nu) tail slope equals lambda2 +- 2%.

    Unattainable: b is slaved to the weak direction near the node, so the
    slope tends to 2 (= twice lambda1), not lambda2 in [21, 221].
    """
    orbits, _ = sweep_orbits
    measured = {}
    for key, path in orbits.items():
        p = path.params
        lam2 = sl.equilibria(p)[0].eigenvalues[1]
        window = path.a <= 10.0 * path.a[0]
        btil = path.b[window] - 1.0 / p.c_nu
        pos = btil > 0
        if pos.sum() >= 4:
            slope = np.polyfit(path.eta[window][pos], np.log(btil[pos]), 1)[0]
        else:
            slope = math.nan
        measured[key] = (slope, lam2)
    worst = max(abs(s / l2 - 1.0) if np.isfinite(s) else math.inf
                for s, l2 in measured.values())
    ok = worst <= 0.02
    sample = next(iter(measured.items()))
    _report("4 (lambda2 tail slope)", ok,
            f"e.g. {sample[0]}: measured slope {sample[1][0]:.3g} vs "
            f"lambda2 = {sample[1][1]:.3g}; slaving forces slope -> 2")
    assert ok, (
        f"measured tail slopes {measured}; b - 1/c_nu = ((n+1)/n)/(lambda2-2) a^2 "
        "+ o(a^2) near the node, so the slope is 2, never lambda2")


def test_criterion_5_profile_endpoints(showcase_bundle):
    """Origin and tail behavior of reconstructed profiles at stated tolerances."""
    _, _, prof, _ = showcase_bundle
    profiles = [prof]
    for key in ((0.05, 0.5, 0.05), (0.1, 1.0, 0.5)):
        p = sl.PlanarParams(*key)
        profiles.append(sl.reconstruct(sl.reparametrize(sl.shoot_heteroclinic(p), 1.5)))
    worst = dict(origin=0.0, product=0.0, tail=0.0, taylor=0.0)
    for pr in profiles:
        rep = sl.endpoint_report(pr)
        worst["origin"] = max(worst["origin"], rep.sigma_origin_gap)
        worst["product"] = max(worst["product"], rep.product_origin_gap)
        worst["tail"] = max(worst["tail"], rep.tail_sigma_dev, rep.tail_u_dev,
                            rep.tail_theta_dev)
        worst["taylor"] = max(worst["taylor"],
                              abs(rep.taylor_coeff / rep.taylor_coeff_target - 1.0))
    ok = (worst["origin"] < 1e-3 and worst["product"] < 1e-3
          and worst["tail"] < 1e-3 and worst["taylor"] < 0.02)
    _report(5, ok, f"|Sigma(0+)-Sigma0| {worst['origin']:.1e}, "
                   f"|U Sigma - c_nu| {worst['product']:.1e}, "
                   f"tail dev {worst['tail']:.1e}, Taylor gap {worst['taylor']:.1%}")
    assert worst["origin"] < 1e-3
    assert worst["product"] < 1e-3
    assert worst["tail"] < 1e-3
    assert worst["taylor"] < 0.02


def test_criterion_6_exact_solution_verification():
    """4th-order residual convergence to < 1e-6; collapse < 1e-4; < 30 s."""
    start = time.perf_counter()
    p = sl.PlanarParams(n=0.1, alpha=0.5, nu=0.1)
    prof = sl.reconstruct(sl.reparametrize(sl.shoot_heteroclinic(p), 1.88))
    params = sl.MaterialParams(n=0.1, alpha=0.5, kappa=0.0, theta0=10.0)
    sol = sl.LocalizedSolution(params=params,
                               scaling=sl.ScalingParams(lam=0.1, sigma0=1.88),
                               profile=prof)
    reports, orders, order = sl.residual_convergence(sol)
    finest = [r for r in reports if not r.at_interpolation_floor][-1]
    floor_sup = max(reports[-1].sup[0], reports[-1].sup[1])

    lam = 0.1
    x = np.linspace(0.0, 5.0, 801)
    xi0 = math.sqrt(lam) * x
    u0 = sol.evaluate(x, 0.0)[0]
    collapse_dev = 0.0
    for t in (50.0, 200.0):
        phi = sol.phi(t)
        xi = xi0 * phi
        u = sol.evaluate(x, t)[0] / phi
        lo, hi = xi0[0], min(xi0[-1], xi[-1])
        xs = np.linspace(lo + 1e-9, hi, 500)
        dev = np.interp(xs, xi0, u0) - np.interp(xs, xi, u)
        collapse_dev = max(collapse_dev, float(np.max(np.abs(dev))))
    wall = time.perf_counter() - start
    ok = (abs(order - 4.0) < 0.3 and floor_sup < 1e-6
          and collapse_dev < 1e-4 and wall < 30.0)
    _report(6, ok, f"order {order:.3f}, floor sup {floor_sup:.2e}, "
                   f"collapse {collapse_dev:.2e}, wall {wall:.1f} s")
    assert order == pytest.approx(4.0, abs=0.3)
    assert max(finest.sup[0], finest.sup[1]) < 1e-6 and floor_sup < 1e-6
    assert collapse_dev < 1e-4
    assert wall < 30.0


def test_criterion_7_metastability():
    """Metastability run: inhomogeneity rises >= 2x then decays below initial before
    t = 500; weighted energy monotone after the certificate time; < 2 min."""
    start = time.perf_counter()
    config = sl.SimConfig.from_json(REPO / "configs" / "metastability.json")
    assert (config.kappa, config.alpha, config.n, config.N) == (0.5, 0.5, 0.05, 512)
    assert config.amplitude == 0.1 and config.t_end == 500.0
    result = sl.run(config)
    inhom = result.inhomogeneity
    rise = inhom.max() / inhom[0]
    peak = int(np.argmax(inhom))
    rec = np.where((inhom < inhom[0]) & (np.arange(inhom.size) > peak))[0]
    t_rec = result.times[rec[0]] if rec.size else math.inf

    cert = sl.energy_certificate(config.material())
    after = result.times >= cert.T
    E = result.energy[after]
    slack = 1e-9 * result.energy.max()
    monotone = bool(np.all(np.diff(E) <= slack))
    wall = time.perf_counter() - start
    ok = rise >= 2.0 and t_rec < 500.0 and monotone and wall < 120.0
    _report(7, ok, f"rise {rise:.2f}x, recovery at t = {t_rec:.1f}, "
                   f"energy monotone after T = {cert.T:.0f}: {monotone}, "
                   f"wall {wall:.1f} s")
    assert rise >= 2.0
    assert t_rec < 500.0
    assert monotone
    assert wall < 120.0


def test_criterion_8_linear_nonlinear_crosscheck():
    """Fitted mode-1 growth of the nonlinear solver within 10% of the
    linearized prediction over the first e-fold (amplitude 1e-4, kappa = 0)."""
    n, alpha, theta_b = 0.05, 0.5, 0.0
    params = sl.MaterialParams(n=n, alpha=alpha, kappa=0.0, theta0=theta_b)
    m = sl.mode_eigen(params, 0.0, 1)
    A = sl.mode_matrix(params, 0.0, 1)
    w, V = np.linalg.eig(A)
    vec = V[:, np.argmax(w.real)].real
    vec /= np.abs(vec).max()

    N = 256
    grid = sl.Grid1D(N)
    x = grid.x
    delta = 1e-4
    v0 = x + delta * vec[0] * np.sin(np.pi * x) / np.pi
    th0 = theta_b + delta * vec[1] * np.cos(np.pi * x)
    state = sl.FieldState(grid, 0.0, v0, th0)

    # first e-fold of the mode: tau = 1/lambda+, mapped back to t
    tau_fold = 1.0 / m.lambda_plus
    t_fold = sl.t_of_tau(params, tau_fold)
    ts = np.linspace(0.0, t_fold, 13)
    amps = []
    cur = state
    for t in ts[1:]:
        cur = sl.step(cur, params, t_target=float(t), rtol=1e-10, atol=1e-12)
        th = cur.theta
        a1 = 2.0 * np.trapezoid((th - np.trapezoid(th, x)) * np.cos(np.pi * x), x)
        amps.append(a1)
    a0 = 2.0 * np.trapezoid((th0 - np.trapezoid(th0, x)) * np.cos(np.pi * x), x)
    amps = np.array([a0] + amps)
    taus = sl.tau_of_t(params, ts)
    fitted = np.polyfit(taus, np.log(np.abs(amps)), 1)[0]
    rel = abs(fitted - m.lambda_plus) / m.lambda_plus
    ok = rel < 0.10
    _report(8, ok, f"fitted growth {fitted:.4f} vs lambda_1+ = {m.lambda_plus:.4f} "
                   f"({rel:.2%})")
    assert rel < 0.10


def test_criterion_9_uniform_shear_tracking():
    """Nonlinear solver reproduces the base solution to < 1e-6 on [0, 10], N = 256."""
    params = sl.MaterialParams(n=0.05, alpha=0.5, kappa=0.5, theta0=0.0)
    state = sl.initial_uniform(sl.Grid1D(256), params)
    errs = []
    cur = state
    for t in np.linspace(1.0, 10.0, 10):
        cur = sl.step(cur, params, t_target=float(t),
                      rtol=1e-10, atol=1e-12)
        ref = sl.uniform_shear(params, float(t))
        errs.append(max(np.max(np.abs(cur.v - cur.grid.x)),
                        np.max(np.abs(cur.theta - ref.theta_s))))
    worst = max(errs)
    ok = worst < 1e-6
    _report(9, ok, f"max-norm error {worst:.2e} over t in [0, 10]")
    assert worst < 1e-6
