import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shearlab import (
    MaterialParams,
    ParameterError,
    StiffnessError,
    mode_eigen,
    spectrum,
    asymptotic_eigen,
    mode_matrix,
    trotter_split,
    frozen_mode_solution,
    integrate_mode,
    energy_certificate,
    energy_decay_check,
)
from shearlab import stability
from shearlab.stability import STABLE, UNSTABLE, MARGINAL, _quadratic_coeffs


def binomial_residual(params, k, j, lam):
    x = (j * math.pi) ** 2
    b = params.alpha + (params.n + k) * x
    c = params.n * k * x * x - params.alpha * x
    return lam * lam + b * lam + c


def test_mode_zero_pair():
    for alpha in (0.3, 1.0, 2.0):
        m = mode_eigen(MaterialParams(n=0.1, alpha=alpha), 0.5, 0)
        assert m.lambda_plus == 0.0
        assert m.lambda_minus == pytest.approx(-alpha, rel=1e-14)
        assert m.classification == MARGINAL


def test_hadamard_mode_closed_form():
    # n = 0, k = 0, alpha = 1, j = 1: lambda = -1/2 +- sqrt(1 + 4 pi^2)/2
    m = mode_eigen(MaterialParams(n=0.0, alpha=1.0), 0.0, 1)
    root = math.sqrt(1.0 + 4.0 * math.pi ** 2)
    assert m.lambda_plus == pytest.approx(-0.5 + 0.5 * root, rel=1e-14)
    assert m.lambda_minus == pytest.approx(-0.5 - 0.5 * root, rel=1e-14)


def test_diffusion_stabilizes_first_mode():
    # n k pi^2 = 0.987 > alpha = 0.5: both roots negative
    params = MaterialParams(n=0.05, alpha=0.5)
    assert params.n * 2.0 * math.pi ** 2 > 0.5
    m = mode_eigen(params, 2.0, 1)
    assert m.lambda_plus < 0 and m.lambda_minus < 0
    assert m.classification == STABLE
    for lam in (m.lambda_plus, m.lambda_minus):
        assert abs(binomial_residual(params, 2.0, 1, lam)) < 1e-9 * max(1.0, lam * lam)


def test_root_identities_random_sweep():
    rng = np.random.default_rng(20240817)
    for _ in range(200):
        n = rng.uniform(0.01, 2.0)
        alpha = rng.uniform(0.01, 2.0)
        k = rng.uniform(0.0, 2.0)
        j = int(rng.integers(0, 65))
        params = MaterialParams(n=n, alpha=alpha)
        m = mode_eigen(params, k, j)
        x = (j * math.pi) ** 2
        assert m.discriminant > 0
        assert m.lambda_plus + m.lambda_minus == pytest.approx(
            -(n + k) * x - alpha, rel=1e-10, abs=1e-12)
        assert m.lambda_plus * m.lambda_minus == pytest.approx(
            n * k * x * x - alpha * x, rel=1e-10, abs=1e-10)
        for lam in (m.lambda_plus, m.lambda_minus):
            assert abs(binomial_residual(params, k, j, lam)) < 1e-9 * max(1.0, lam * lam)


def test_spectrum_all_unstable_without_diffusion():
    for n in (0.0, 0.05, 1.0):
        sp = spectrum(MaterialParams(n=n, alpha=0.7), 0.0, 10)
        assert sp.num_unstable == 10
        assert sp.modes[0].classification == MARGINAL


def test_spectrum_threshold_count():
    # count of j with n k (j pi)^2 < alpha, as a direct integer count
    n, alpha, k = 0.05, 0.5, 0.1
    expected = sum(1 for j in range(1, 21) if n * k * (j * math.pi) ** 2 < alpha)
    sp = spectrum(MaterialParams(n=n, alpha=alpha), k, 20)
    assert sp.num_unstable == expected == 3
    # boundary modes agree with mode_eigen signs
    for j in range(1, 21):
        m = sp.modes[j]
        assert (m.classification == UNSTABLE) == (m.lambda_plus > 0)


def test_spectrum_above_threshold_all_stable():
    n, alpha = 0.05, 0.5
    k = alpha / (n * math.pi ** 2)
    sp = spectrum(MaterialParams(n=n, alpha=alpha), k * 1.0000001, 50)
    assert sp.num_unstable == 0


def test_spectrum_rejects_jmax_zero():
    with pytest.raises(ParameterError):
        spectrum(MaterialParams(n=0.1, alpha=0.5), 0.0, 0)


def test_classification_flips_exactly_at_threshold():
    n, alpha, j = 0.05, 0.5, 3
    kstar = alpha / (n * (j * math.pi) ** 2)
    below = mode_eigen(MaterialParams(n=n, alpha=alpha), kstar * (1 - 1e-9), j)
    above = mode_eigen(MaterialParams(n=n, alpha=alpha), kstar * (1 + 1e-9), j)
    assert below.classification == UNSTABLE
    assert above.classification == STABLE


def test_asymptotic_hadamard():
    params = MaterialParams(n=0.0, alpha=1.0)
    for j in (50, 200):
        lam_m, lam_p, regime = asymptotic_eigen(params, 0.0, j)
        assert regime == "hadamard"
        assert lam_p == pytest.approx(j * math.pi - 0.5, rel=1e-4)
        exact = mode_eigen(params, 0.0, j)
        assert lam_p == pytest.approx(exact.lambda_plus, rel=1e-8)
        assert lam_m == pytest.approx(exact.lambda_minus, rel=1e-8)


def test_asymptotic_hadamard_error_decay():
    # truncation after the 1/(j pi) term leaves an O(j^-3) error
    params = MaterialParams(n=0.0, alpha=0.5)
    js = np.array([50, 100, 200, 400])
    errs = []
    for j in js:
        exact = mode_eigen(params, 0.0, int(j))
        approx = asymptotic_eigen(params, 0.0, int(j))[1]
        errs.append(abs(approx - exact.lambda_plus))
    slope = np.polyfit(np.log(js), np.log(errs), 1)[0]
    assert slope == pytest.approx(-3.0, abs=0.3)


def test_asymptotic_turing_error_decay():
    # |asymptotic - exact| = O(1/j^2); fitted over j = 100..400 where the
    # correction ~ alpha^2/(n^3 x) has settled into its asymptotic decay
    params = MaterialParams(n=0.05, alpha=0.5)
    js = np.array([100, 141, 200, 283, 400])
    errs = []
    for j in js:
        exact = mode_eigen(params, 0.0, int(j))
        lam_m, lam_p, regime = asymptotic_eigen(params, 0.0, int(j))
        assert regime == "turing"
        errs.append(abs(lam_p - exact.lambda_plus))
    slope = np.polyfit(np.log(js), np.log(errs), 1)[0]
    assert slope == pytest.approx(-2.0, abs=0.2)


def test_asymptotic_turing_limit():
    params = MaterialParams(n=0.05, alpha=0.5)
    lam_p = [asymptotic_eigen(params, 0.0, j)[1] for j in (10, 100, 1000)]
    assert abs(lam_p[-1] - 10.0) < abs(lam_p[0] - 10.0)
    assert lam_p[-1] == pytest.approx(0.5 / 0.05, rel=1e-3)


@pytest.mark.parametrize("n,k", [(0.2, 0.05), (0.05, 0.2)])
def test_asymptotic_diffusive_both_orderings(n, k):
    # the n < k companion mirrors the published n > k expansion
    params = MaterialParams(n=n, alpha=0.5)
    js = np.array([40, 80, 160, 320])
    errs = []
    for j in js:
        exact = mode_eigen(params, k, int(j))
        lam_m, lam_p, regime = asymptotic_eigen(params, k, int(j))
        assert regime == "diffusive"
        errs.append(max(abs(lam_p - exact.lambda_plus),
                        abs(lam_m - exact.lambda_minus)))
    slope = np.polyfit(np.log(js), np.log(errs), 1)[0]
    assert slope == pytest.approx(-2.0, abs=0.35)


def test_asymptotic_degenerate_and_unsupported():
    params = MaterialParams(n=0.1, alpha=0.5)
    lam_m, lam_p, _ = asymptotic_eigen(params, 0.1, 7)   # |n-k| < 1e-8
    exact = mode_eigen(params, 0.1, 7)
    assert lam_p == exact.lambda_plus and lam_m == exact.lambda_minus
    with pytest.raises(ParameterError):
        asymptotic_eigen(MaterialParams(n=0.0, alpha=0.5), 0.1, 3)
    with pytest.raises(ParameterError):
        asymptotic_eigen(params, 0.0, 0)


def test_turing_lemma_monotone_bounded():
    # lambda_{j,+} strictly increasing in j and < alpha/n; approaches alpha/n
    # within 1% once (j pi)^2 >= (alpha/n^2)(98.01 + 99 n) (from the root
    # identity with lambda = 0.99 alpha/n)
    n, alpha = 0.05, 0.5
    params = MaterialParams(n=n, alpha=alpha)
    lams = np.array([mode_eigen(params, 0.0, j).lambda_plus for j in range(1, 257)])
    assert np.all(np.diff(lams) > 0)
    assert np.all(lams < alpha / n)
    xstar = (alpha / n ** 2) * (98.01 + 99.0 * n)
    jstar = int(np.ceil(math.sqrt(xstar) / math.pi))
    lam_star = mode_eigen(params, 0.0, jstar).lambda_plus
    assert lam_star >= 0.99 * alpha / n
    # just below the threshold the deviation still exceeds 1%
    lam_before = mode_eigen(params, 0.0, max(1, jstar - 2)).lambda_plus
    assert lam_before < 0.99 * alpha / n


def test_hadamard_growth_rate_scaling():
    for alpha in (0.5, 1.0):
        params = MaterialParams(n=0.0, alpha=alpha)
        lam = mode_eigen(params, 0.0, 1000).lambda_plus
        assert lam / (1000 * math.pi) == pytest.approx(math.sqrt(alpha), rel=1e-3)


def test_trotter_split_instability():
    # each split matrix is stable; the sum is unstable for every j >= 1
    params = MaterialParams(n=0.05, alpha=0.5)
    for j in range(1, 11):
        a1, a2 = trotter_split(params, j)
        assert np.all(np.linalg.eigvals(a1).real <= 0)
        assert np.all(np.linalg.eigvals(a2).real <= 0)
        total = a1 + a2
        assert np.allclose(total, mode_matrix(params, 0.0, j))
        assert np.max(np.linalg.eigvals(total).real) > 0


def test_integrate_mode_eigendirection():
    # started on the growing eigenvector, the trajectory stays on the ray and
    # grows like exp(lambda_plus tau)
    params = MaterialParams(n=0.05, alpha=0.5)
    k, j = 0.0, 2
    m = mode_eigen(params, k, j)
    A = mode_matrix(params, k, j)
    w, V = np.linalg.eig(A)
    vec = V[:, np.argmax(w.real)].real
    traj = integrate_mode(params, j, vec, 1.5, frozen_k=k)
    growth = np.exp(m.lambda_plus * traj.taus)
    assert np.allclose(traj.u, vec[0] * growth, rtol=1e-7)
    assert np.allclose(traj.theta, vec[1] * growth, rtol=1e-7)


def test_integrate_mode_zero_mode_decay():
    params = MaterialParams(n=0.05, alpha=0.5)
    traj = integrate_mode(params, 0, (0.0, 1.0), 3.0, frozen_k=0.3)
    assert np.allclose(traj.u, 0.0, atol=1e-14)
    assert np.allclose(traj.theta, np.exp(-params.alpha * traj.taus), rtol=1e-7)


def test_integrate_mode_matches_closed_form():
    # dual route: adaptive RK endpoint vs eigen-decomposition solution
    params = MaterialParams(n=0.1, alpha=0.7)
    for k, j, tau in ((0.0, 1, 2.0), (0.4, 3, 1.0), (2.0, 5, 0.5)):
        traj = integrate_mode(params, j, (0.3, -0.7), tau, frozen_k=k)
        u_ref, th_ref = frozen_mode_solution(params, k, j, (0.3, -0.7), tau)
        assert traj.u[-1] == pytest.approx(u_ref, rel=1e-8)
        assert traj.theta[-1] == pytest.approx(th_ref, rel=1e-8)


def test_integrate_mode_trapezoid_agrees_with_rk45():
    params = MaterialParams(n=0.05, alpha=0.5, kappa=0.5, theta0=0.0)
    tau_end = 2.0
    a = integrate_mode(params, 1, (1.0, 1.0), tau_end, method="rk45",
                       tau_eval=np.linspace(0, tau_end, 11))
    b = integrate_mode(params, 1, (1.0, 1.0), tau_end, method="trapezoid",
                       tau_eval=np.linspace(0, tau_end, 11))
    assert np.allclose(a.u, b.u, rtol=5e-6, atol=1e-10)
    assert np.allclose(a.theta, b.theta, rtol=5e-6, atol=1e-10)


def _trapezoid_elementwise(params, j, init, tau_end, k_of_tau):
    # the trapezoid loop as it indexed float64 arrays element by element
    x = (j * math.pi) ** 2
    k_end = float(k_of_tau(tau_end))
    h = min(1e-3, 0.1 / max(k_end, 1e-30))
    nsteps = max(2, int(math.ceil(tau_end / h)))
    taus = np.linspace(0.0, tau_end, nsteps + 1)
    h = taus[1] - taus[0]
    a11 = -params.n * x
    a12 = params.alpha * x
    a21 = params.n + 1.0
    a22 = -params.alpha - np.asarray(k_of_tau(taus), dtype=float) * x
    ys = np.empty((nsteps + 1, 2))
    ys[0] = init
    hh = 0.5 * h
    for m in range(nsteps):
        r0 = ys[m, 0] + hh * (a11 * ys[m, 0] + a12 * ys[m, 1])
        r1 = ys[m, 1] + hh * (a21 * ys[m, 0] + a22[m] * ys[m, 1])
        m11 = 1.0 - hh * a11
        m12 = -hh * a12
        m21 = -hh * a21
        m22 = 1.0 - hh * a22[m + 1]
        det = m11 * m22 - m12 * m21
        ys[m + 1, 0] = (m22 * r0 - m12 * r1) / det
        ys[m + 1, 1] = (m11 * r1 - m21 * r0) / det
    return taus, ys[:, 0], ys[:, 1]


@pytest.mark.parametrize("frozen_k", [None, 0.7])
def test_trapezoid_loop_on_floats_is_bit_identical(frozen_k):
    params = MaterialParams(n=0.05, alpha=0.5, kappa=0.5, theta0=0.0)
    if frozen_k is None:
        k_of_tau = lambda tau: params.kappa * np.exp(params.log_c0 + params.alpha * tau)
    else:
        k_of_tau = lambda tau: np.full_like(np.asarray(tau, dtype=float), frozen_k)
    for j, init, tau_end in ((3, (1.0, -0.5), 2.0), (40, (0.3, 0.9), 1.3)):
        taus, u, th = _trapezoid_elementwise(params, j, init, tau_end, k_of_tau)
        traj = integrate_mode(params, j, init, tau_end, frozen_k=frozen_k,
                              method="trapezoid")
        assert np.array_equal(traj.taus, taus)
        assert np.array_equal(traj.u, u)
        assert np.array_equal(traj.theta, th)
        tau_eval = np.linspace(0.0, tau_end, 37)
        sampled = integrate_mode(params, j, init, tau_end, frozen_k=frozen_k,
                                 method="trapezoid", tau_eval=tau_eval)
        assert np.array_equal(sampled.u, np.interp(tau_eval, taus, u))
        assert np.array_equal(sampled.theta, np.interp(tau_eval, taus, th))


def test_integrate_mode_stiffness_guard():
    params = MaterialParams(n=0.05, alpha=0.5, kappa=0.5, theta0=0.0)
    with pytest.raises(StiffnessError):
        integrate_mode(params, 40, (1.0, 1.0), 14.0, method="rk45")
    traj = integrate_mode(params, 40, (1.0, 1.0), 14.0)   # auto switches
    assert traj.method == "trapezoid"
    assert np.all(np.isfinite(traj.u))


MODE_PARAMS = MaterialParams(n=0.05, alpha=0.5, kappa=0.1, theta0=0.3)


@pytest.mark.parametrize("tau_end", [40.0, 2000.0])
def test_trapezoid_step_count_is_bounded(tau_end):
    # 2.25e10 steps (168 GiB) at tau_end = 40; k(tau_end) overflows to inf at
    # 2000.  Both are refused before anything is allocated.
    with pytest.raises(StiffnessError, match="trapezoid steps|not finite"):
        integrate_mode(MODE_PARAMS, 1, (1.0, 1.0), tau_end)
    with pytest.raises(StiffnessError):
        integrate_mode(MODE_PARAMS, 1, (1.0, 1.0), tau_end, method="trapezoid")


def test_trapezoid_step_bound_is_the_module_constant(monkeypatch):
    # 100x above the most steps any test or benchmark op takes (76,765)
    assert stability.MAX_TRAPEZOID_STEPS >= 100 * 76_765
    # tau_end = 2 at k(tau_end) < 100 takes 2,000 steps of h = 1e-3
    monkeypatch.setattr(stability, "MAX_TRAPEZOID_STEPS", 1_999)
    with pytest.raises(StiffnessError, match="more than 1999"):
        integrate_mode(MODE_PARAMS, 1, (1.0, 1.0), 2.0, method="trapezoid")
    monkeypatch.setattr(stability, "MAX_TRAPEZOID_STEPS", 2_000)
    assert integrate_mode(MODE_PARAMS, 1, (1.0, 1.0), 2.0, method="trapezoid").taus.size == 2_001
    with pytest.raises(StiffnessError, match="not finite"):
        integrate_mode(MODE_PARAMS, 1, (1.0, 1.0), 2.0, frozen_k=math.inf, method="trapezoid")


@pytest.mark.parametrize("method", ["rk45", "trapezoid"])
@pytest.mark.parametrize("tau_eval, match", [
    ([2.0, 1.0, 0.5], "sorted"), ([0.5, 1.0, 1.0], "sorted"), ([0.5, 1.0, 7.0], "within"),
    ([-1.0, 0.5], "within"), ([0.5, math.nan], "within"), ([[0.5, 1.0]], "1-dimensional"),
])
def test_tau_eval_is_checked_on_both_routes(method, tau_eval, match):
    with pytest.raises(ParameterError, match=match):
        integrate_mode(MODE_PARAMS, 1, (1.0, 1.0), 2.0, method=method, tau_eval=tau_eval)


@pytest.mark.parametrize("method", ["rk45", "trapezoid"])
def test_tau_eval_samples_every_point(method):
    tau_eval = [0.0, 0.5, 1.0, 2.0]
    traj = integrate_mode(MODE_PARAMS, 1, (1.0, 1.0), 2.0, method=method, tau_eval=tau_eval)
    assert traj.taus.tolist() == tau_eval and traj.u.size == traj.theta.size == 4
    assert traj.u[-1] == pytest.approx(13.93364, rel=1e-5)


def test_poincare_constant_oracle():
    # smallest Rayleigh quotient of zero-mean Neumann functions on [0,1] is
    # pi^2: minimize int u_x^2 / int u^2 over discrete zero-mean vectors
    N = 400
    h = 1.0 / N
    main = np.full(N + 1, 2.0)
    main[0] = main[-1] = 1.0
    K = (np.diag(main) - np.diag(np.ones(N), 1) - np.diag(np.ones(N), -1)) / h
    M = np.diag(np.full(N + 1, h))
    M[0, 0] = M[-1, -1] = h / 2.0
    # restrict to the zero-mean subspace
    w = np.diag(M)
    basis = np.eye(N + 1) - np.outer(np.ones(N + 1), w) / w.sum()
    q, _ = np.linalg.qr(basis[:, :-1])
    Kr = q.T @ K @ q
    Mr = q.T @ M @ q
    vals = np.linalg.eigvals(np.linalg.solve(Mr, Kr))
    lam_min = np.min(vals.real[vals.real > 1e-8])
    cert = energy_certificate(MaterialParams(n=0.05, alpha=0.5, kappa=0.5))
    assert 1.0 / lam_min == pytest.approx(cert.Cp, rel=1e-3)


def test_certificate_selection_rules():
    params = MaterialParams(n=0.05, alpha=0.5, kappa=0.5, theta0=0.0)
    cert = energy_certificate(params)
    assert cert.A * params.n / (2.0 * cert.Cp) >= (params.n + 1.0) ** 2 / params.alpha
    assert cert.B * params.kappa > params.alpha ** 2 / (2.0 * params.n) / params.c0
    # T formula: (A alpha^2 / 2n) sigma_s(T) = kappa when T > 0
    assert cert.T == pytest.approx(
        max(0.0, (cert.A * params.alpha ** 2 / (2 * params.n * params.kappa) - 1.0)
            / params.alpha), rel=1e-12)
    sigma_T = 1.0 / (params.alpha * cert.T + params.c0)
    assert cert.A * params.alpha ** 2 / (2 * params.n) * sigma_T == pytest.approx(
        params.kappa, rel=1e-10)


def test_certificate_requires_diffusion_and_sensitivity():
    with pytest.raises(ParameterError):
        energy_certificate(MaterialParams(n=0.05, alpha=0.5, kappa=0.0))
    with pytest.raises(ParameterError):
        energy_certificate(MaterialParams(n=0.0, alpha=0.5, kappa=0.5))


def test_decay_check_rejects_mean_mode():
    params = MaterialParams(n=0.05, alpha=0.5, kappa=0.5)
    cert = energy_certificate(params)
    with pytest.raises(ParameterError):
        energy_decay_check(params, cert, [(0, (1.0, 0.0))], 1.0)


def test_decay_check_flags_no_certificate():
    params = MaterialParams(n=0.05, alpha=0.5, kappa=0.0)
    report = energy_decay_check(params, None, [(1, (1.0, 1.0))], 2.0)
    assert not report.certificate_applicable
    assert report.monotone_after_T is None


def test_decay_check_strong_diffusion_monotone_from_start():
    # kappa far above the stabilization threshold: the weighted quadratic form
    # is dissipative along the trajectory from tau = 0
    params = MaterialParams(n=0.05, alpha=0.5, kappa=15.0, theta0=0.0)
    cert = energy_certificate(params)
    report = energy_decay_check(params, cert, [(1, (0.0, 1.0))], 3.0)
    assert np.all(np.diff(report.E) <= report.monotone_slack * report.E.max())


def test_single_mode_energy_monotone_after_certificate_time():
    # non-autonomous mode 1, generic init: the weighted energy
    # (A/2) u^2 + (1/2) theta^2 is non-increasing past the certificate time
    params = MaterialParams(n=0.05, alpha=0.5, kappa=0.5, theta0=0.0)
    cert = energy_certificate(params)
    tau_T = cert.tau_T
    traj = integrate_mode(params, 1, (0.7, -0.3), 1.5 * tau_T)
    E = 0.5 * cert.A * traj.u ** 2 + 0.5 * traj.theta ** 2
    after = traj.taus >= tau_T
    assert after.sum() > 10
    seg = E[after]
    assert np.all(np.diff(seg) <= 1e-9 * E.max())


def test_decay_check_metastable_signature():
    # grows on a transient, then decays; E(end) < E(0) at t_end = 10 T
    params = MaterialParams(n=0.05, alpha=0.5, kappa=0.5, theta0=0.0)
    cert = energy_certificate(params)
    rng = np.random.default_rng(7)
    modes = []
    for j in range(1, 6):
        vec = rng.normal(size=2)
        modes.append((j, tuple(vec / np.linalg.norm(vec))))
    from shearlab import tau_of_t
    tau_end = tau_of_t(params, 10.0 * cert.T)
    report = energy_decay_check(params, cert, modes, tau_end)
    assert report.max_E_before_T > report.E[0]           # transient growth
    assert report.monotone_after_T
    assert report.E[-1] < report.E[0]


@settings(max_examples=200, deadline=None)
@given(n=st.floats(0.0, 2.0), alpha=st.floats(1e-2, 10.0), k=st.floats(0.0, 2.0),
       j=st.integers(0, 2000))
def test_eigenvalue_sum_and_product(n, alpha, k, j):
    params = MaterialParams(n=n, alpha=alpha)
    m = mode_eigen(params, k, j)
    _, b, c = _quadratic_coeffs(params, k, j)
    lm, lp = m.lambda_minus, m.lambda_plus
    eps = np.finfo(float).eps
    assert abs((lm + lp) + b) <= 8 * eps * (abs(lm) + abs(lp))
    assert abs(lm * lp - c) <= 8 * eps * abs(c)
