import math
import re

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
from shearlab import _magnus, stability
from shearlab.material import energy_weight
from shearlab.stability import STABLE, UNSTABLE, MARGINAL, ModeEigen, _quadratic_coeffs


def binomial_residual(params, k, j, lam):
    x = (j * math.pi) ** 2
    b = params.alpha + (params.n + k) * x
    c = params.n * k * x * x - params.alpha * x
    return lam * lam + b * lam + c


def test_mode_zero_pair():
    for alpha in (0.3, 1.0, 2.0):
        m = mode_eigen(MaterialParams(n=0.1, alpha=alpha), 0.5, 0)
        assert m.lambda_plus == 0.0
        assert m.lambda_minus == pytest.approx(-alpha, rel=1e-14, abs=0)
        assert m.classification == MARGINAL


def test_hadamard_mode_closed_form():
    # n = 0, k = 0, alpha = 1, j = 1: lambda = -1/2 +- sqrt(1 + 4 pi^2)/2
    m = mode_eigen(MaterialParams(n=0.0, alpha=1.0), 0.0, 1)
    root = math.sqrt(1.0 + 4.0 * math.pi ** 2)
    assert m.lambda_plus == pytest.approx(-0.5 + 0.5 * root, rel=1e-14, abs=0)
    assert m.lambda_minus == pytest.approx(-0.5 - 0.5 * root, rel=1e-14, abs=0)


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


def _scalar_eigen(params, k, j):
    """One mode's roots in Python floats, by the formulas of mode_eigen."""
    x = (j * math.pi) ** 2
    b = params.alpha + (params.n + k) * x
    c = params.n * k * x * x - params.alpha * x
    disc = b * b - 4.0 * c
    lam_minus = -0.5 * (b + math.sqrt(disc))
    lam_plus = c / lam_minus if lam_minus != 0.0 else 0.0
    cls = MARGINAL if j == 0 or c == 0.0 else UNSTABLE if c < 0.0 else STABLE
    return ModeEigen(j, lam_minus, lam_plus, disc, cls)


# (n, alpha, k): diffusive, Turing (k = 0), Hadamard (n = k = 0), n = 0 with
# k > 0, and n k = 1 with alpha = (3 pi)^2, where c == 0 at j = 3
SPECTRUM_CASES = [(0.1, 0.5, 0.1234), (0.05, 0.5, 0.0), (0.0, 1.0, 0.0), (0.0, 0.7, 0.3),
                  (0.5, (3 * math.pi) ** 2, 2.0)]


@pytest.mark.parametrize("n, alpha, k", SPECTRUM_CASES)
def test_spectrum_arrays_are_the_scalar_roots_bit_for_bit(n, alpha, k):
    params = MaterialParams(n=n, alpha=alpha)
    sp = spectrum(params, k, 4096)
    ref = [_scalar_eigen(params, k, j) for j in range(4097)]
    for name in ("lambda_minus", "lambda_plus", "discriminant"):
        want = np.array([getattr(m, name) for m in ref])
        assert np.array_equal(getattr(sp, name).view(np.int64), want.view(np.int64)), name
    assert sp.j.tolist() == list(range(4097))
    assert sp.classification.tolist() == [m.classification for m in ref]
    assert sp.num_unstable == sum(m.classification == UNSTABLE for m in ref)
    # modes are the ModeEigen of before, with Python ints, floats and strs
    assert sp.modes == tuple(ref)
    assert {tuple(map(type, vars(m).values())) for m in sp.modes} == {(int, float, float, float, str)}
    for j in (0, 1, 3, 2207, 4096):
        assert vars(mode_eigen(params, k, j)) == vars(ref[j])


def test_mode_wavenumbers_are_c_pows_of_j_pi():
    # (j pi)^2 as Python's float power forms it; (j pi) * (j pi) misses its last bit for some j
    j = np.arange(65537)
    x, _, _ = _quadratic_coeffs(MaterialParams(n=0.5, alpha=1.0), 2.0, j)
    expected = np.array([(i * math.pi) ** 2 for i in j.tolist()])
    assert np.array_equal(x.view(np.uint64), expected.view(np.uint64))
    assert _quadratic_coeffs(MaterialParams(n=0.5, alpha=1.0), 2.0, 7)[0] == (7 * math.pi) ** 2


def test_spectrum_marks_a_zero_product_marginal():
    params = MaterialParams(n=0.5, alpha=(3 * math.pi) ** 2)
    _, _, c = _quadratic_coeffs(params, 2.0, 3)
    assert c == 0.0
    sp = spectrum(params, 2.0, 5)
    assert sp.classification.tolist() == [MARGINAL, UNSTABLE, UNSTABLE, MARGINAL, STABLE, STABLE]
    assert mode_eigen(params, 2.0, 3).classification == MARGINAL


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


MODE_PARAMS = MaterialParams(n=0.05, alpha=0.5, kappa=0.1, theta0=0.3)
# (theta0, kappa) corners and centre of the box the benchmark draws from
BOX = [(-1.0, 0.01), (-1.0, 0.2), (0.0, 0.1), (1.0, 0.01), (1.0, 0.2)]


def _kernel(params, j, tau_end, init=(1.0, 1.0), t_eval=None):
    """The Magnus kernel over the whole default grid of ``integrate_mode`` (or ``t_eval``),
    with the a22 and tolerances ``integrate_mode`` gives it: the solve it made before it
    took stiff tails in closed form."""
    t = np.linspace(0.0, tau_end, stability.MODE_POINTS) if t_eval is None else t_eval
    return _magnus.solve_ivp(stability._mode_entries(params, 0.0, j)[:3],
                             stability._varying_entry(params, j), t, init, rtol=1e-10,
                             atol=1e-14)


def test_integrate_mode_stiffness_guard(monkeypatch):
    # k frozen past the float range, a state past it, and a substep count past the cap
    with pytest.raises(StiffnessError, match="not finite on"):
        integrate_mode(MODE_PARAMS, 1, (1.0, 1.0), 2.0, frozen_k=math.inf)
    with pytest.raises(StiffnessError, match="state is not finite"):
        integrate_mode(MODE_PARAMS, 1, (1e308, 1.0), 2.0)
    monkeypatch.setattr(_magnus, "MAX_SUBSTEPS", 8)
    with pytest.raises(StiffnessError, match="more than 8 substeps"):
        _kernel(MODE_PARAMS, 1, 14.0)


@pytest.mark.parametrize("tau_end", [2000.0])
def test_solve_past_k_overflow_is_refused(tau_end):
    # k(tau_end) overflows to inf at 2000; the solve is refused, not run into NaN
    with pytest.raises(StiffnessError, match="not finite on"):
        integrate_mode(MODE_PARAMS, 1, (1.0, 1.0), tau_end)


@pytest.mark.parametrize("k, j, tau_end, init", [
    (0.0, 1, 2.0, (0.3, -0.7)), (0.4, 3, 1.0, (0.3, -0.7)), (2.0, 5, 0.5, (1.0, 1.0)),
    (0.05, 40, 10.0, (1.0, 1.0))])
def test_frozen_mode_is_exact_to_rounding(monkeypatch, k, j, tau_end, init):
    # a constant A needs no refinement: one pass of 1 and 2 substeps per interval, A at
    # three points in each
    params = MaterialParams(n=0.1, alpha=0.7)
    results = []
    real = stability.solve_ivp

    def recorded(*args, **kwargs):
        results.append(real(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(stability, "solve_ivp", recorded)
    traj = integrate_mode(params, j, init, tau_end, frozen_k=k)
    assert results[0].nfev == 9 * (stability.MODE_POINTS - 1)
    u, th = frozen_mode_solution(params, k, j, init, traj.taus)
    scale = max(np.abs(u).max(), np.abs(th).max())
    assert np.abs(traj.u - u).max() <= 1e-12 * scale
    assert np.abs(traj.theta - th).max() <= 1e-12 * scale


def _energy_horizon(params):
    cert = energy_certificate(params)
    return float(1.2 * cert.tau_T)      # the energy subcommand's default


@pytest.mark.parametrize("theta0, kappa", BOX[::2])
def test_nonautonomous_modes_match_a_refined_solve(theta0, kappa):
    # twice the output points and rtol / 64, what halving a 6th-order substep gains
    params = MaterialParams(n=0.05, alpha=0.5, kappa=kappa, theta0=theta0)
    tau_end = _energy_horizon(params)
    taus = np.linspace(0.0, tau_end, stability.MODE_POINTS)
    fine = np.linspace(0.0, tau_end, 2 * stability.MODE_POINTS - 1)
    for j in (1, 2, 3):
        traj = integrate_mode(params, j, (1.0, 1.0), tau_end)
        ref = integrate_mode(params, j, (1.0, 1.0), tau_end, rtol=1e-10 / 64, tau_eval=fine)
        assert np.array_equal(traj.taus, taus) and np.array_equal(ref.taus[::2], taus)
        scale = np.abs(ref.u).max()
        assert np.abs(traj.u - ref.u[::2]).max() <= 1e-9 * scale, j
        assert np.abs(traj.theta - ref.theta[::2]).max() <= 1e-9 * scale, j


def _radau_mode(params, j, init, tau_end, taus):
    from scipy.integrate import solve_ivp as scipy_solve_ivp
    x = (j * math.pi) ** 2

    def jac(tau, y):
        k = params.kappa * math.exp(params.log_c0 + params.alpha * tau)
        return np.array([[-params.n * x, params.alpha * x],
                         [params.n + 1.0, -params.alpha - k * x]])

    sol = scipy_solve_ivp(lambda tau, y: jac(tau, y) @ y, (0.0, tau_end), init,
                          method="Radau", jac=jac, rtol=1e-12, atol=1e-14, t_eval=taus)
    assert sol.success
    return sol.y


@pytest.mark.parametrize("theta0, kappa", BOX[::2])
def test_mode_40_matches_radau(theta0, kappa):
    # the benchmark's modes op: a lambda ~ -1e4 initial layer, then k(tau) grows 150x
    params = MaterialParams(n=0.05, alpha=0.5, kappa=kappa, theta0=theta0)
    traj = integrate_mode(params, 40, (1.0, 1.0), 10.0)
    u, th = _radau_mode(params, 40, (1.0, 1.0), 10.0, traj.taus)
    assert np.abs(traj.u - u).max() <= 1e-9
    assert np.abs(traj.theta - th).max() <= 1e-9


@pytest.mark.parametrize("kappa", [0.01, 0.1, 0.2])
@pytest.mark.parametrize("theta0", [-1.0, 0.0, 1.0])
def test_energy_is_monotone_after_T_across_the_stability_box(theta0, kappa):
    params = MaterialParams(n=0.05, alpha=0.5, kappa=kappa, theta0=theta0)
    report = energy_decay_check(params, energy_certificate(params),
                                [(j, (1.0, 1.0)) for j in (1, 2, 3)], _energy_horizon(params))
    assert report.monotone_after_T


def _expm_cases():
    rng = np.random.default_rng(1999)
    rot = np.array([[0.0, 1.0], [-1.0, 0.0]])
    return {
        "random": rng.normal(size=(400, 2, 2)) * rng.choice([0.01, 1.0, 5.0], (400, 1, 1)),
        "complex": rot * rng.uniform(0.1, 6.0, (50, 1, 1)) + rng.normal(size=(50, 1, 1)) * np.eye(2),
        "delta-to-0": (rng.normal(size=(50, 1, 1)) * np.eye(2)
                       + np.array([[0.0, 1.0], [0.0, 0.0]]) * 10.0 ** rng.uniform(-12, 0, (50, 1, 1))
                       + rng.normal(size=(50, 2, 2)) * 1e-9),
        "scalar": rng.normal(size=(10, 1, 1)) * np.eye(2),
        "very-negative": np.array([[-800.0, 3.0], [2.0, -900.0]]) * rng.uniform(1.0, 4.0, (20, 1, 1)),
    }


def _expm2_stack(w):
    """``_magnus._expm2`` on the four entries of a stack of 2x2 matrices, stacked back."""
    return np.stack(_magnus._expm2(w[..., 0, 0], w[..., 0, 1], w[..., 1, 0], w[..., 1, 1]),
                    -1).reshape(w.shape)


@pytest.mark.parametrize("case", ["random", "complex", "delta-to-0", "scalar", "very-negative"])
def test_expm2_matches_scipy(case):
    from scipy.linalg import expm
    w = _expm_cases()[case]
    ours = _expm2_stack(w)
    ref = np.array([expm(m) for m in w])
    assert np.all(np.isfinite(ours))
    # SciPy's Pade approximant is itself off by up to 2e-12 on the random cases
    scale = np.maximum(np.abs(ref).max(axis=(1, 2)), 1e-300)
    assert np.all(np.abs(ours - ref).max(axis=(1, 2)) <= 1e-11 * scale)
    if case == "very-negative":
        assert np.all(ours == 0.0)


def test_expm2_keeps_the_small_entries_of_a_stiff_step():
    # h A of mode 40 deep in the stiff range: every entry to a few ulps, the slow
    # eigenvalue (det / fast) included, against 50-digit arithmetic
    mpmath = pytest.importorskip("mpmath")
    x = (40 * math.pi) ** 2
    for k, h in ((1e3, 0.01), (1e5, 0.01), (1e9, 0.03)):
        w = h * np.array([[-0.05 * x, 0.5 * x], [1.05, -0.5 - k * x]])
        with mpmath.workdps(50):
            ref = np.array(mpmath.expm(mpmath.matrix(w.tolist())).tolist(), dtype=float)
        assert np.allclose(_expm2_stack(w), ref, rtol=1e-13, atol=0.0), (k, h)


def test_nfev_counts_matrix_evaluations():
    points = []

    def a22(t):
        points.append(t.size)
        return -2.0 - 50.0 * t ** 2

    sol = _magnus.solve_ivp((-1.0, 3.0, 1.0), a22, np.linspace(0.0, 3.0, 31), (1.0, 0.5),
                            rtol=1e-10, atol=1e-14)
    assert sol.nfev == sum(points) > 9 * 30       # some intervals were refined
    assert sol.njev == 0 and sol.nlu == 0 and sol.status == 0


def test_substep_is_sixth_order():
    # on a smooth non-autonomous case each halving of the substep divides the error by
    # about 2^6; with the fourth-order truncation alone, by about 2^4
    from scipy.integrate import solve_ivp as scipy_solve_ivp

    def a22(t):
        return -2.0 + np.sin(3.0 * t)

    def rhs(t, y):
        return [-y[0] + 3.0 * y[1], y[0] + a22(t) * y[1]]

    ref = np.stack([scipy_solve_ivp(rhs, (0.0, 1.0), col, method="DOP853", rtol=1e-13,
                                    atol=1e-15).y[:, -1] for col in np.eye(2)], axis=1)
    errors = [np.abs(_magnus._propagators((-1.0, 3.0, 1.0), a22, np.array([0.0]),
                                          np.array([1.0]), m)[0].reshape(2, 2) - ref).max()
              for m in (4, 8, 16)]
    assert all(56.0 <= errors[i] / errors[i + 1] <= 72.0 for i in range(2)), errors


def test_substeps_beyond_the_convergence_bound_take_the_fourth_order_terms(monkeypatch):
    """With its sixth-order terms everywhere, step doubling accepts a wrong state.

    On the grid of integrate_mode at tau_end = 200 an output interval spans h k x of
    100 and more from tau of about 10.  There the truncated series damps both modes alike, so m and 2m
    substeps agree on a state near 0 from tau = 15 on, while mode 1 is still about
    0.4.  The bound sends those substeps to the fourth-order terms, and the solve
    ends at the cap as it did with the fourth-order method.
    """
    with pytest.raises(StiffnessError, match="more than 4096 substeps on"):
        _kernel(MODE_PARAMS, 1, 200.0)
    monkeypatch.setattr(_magnus, "CONVERGENT", math.inf)
    wrong = _kernel(MODE_PARAMS, 1, 200.0)
    head = wrong.t <= 16.0
    u, _ = _radau_mode(MODE_PARAMS, 1, (1.0, 1.0), 16.0, wrong.t[head])
    late = wrong.t[head] >= 15.5
    assert np.all(u[late] > 0.3) and np.all(np.abs(wrong.y[0][head][late]) < 1e-6 * u[late])


def test_substep_cap_names_the_first_interval_from_the_solution_at_its_start():
    # the propagator over the grid of modes --j 1 --kappa 0.1 --theta0 0.3 --tau-end
    # 600: the cap falls on one interval while earlier ones are still being refined;
    # the error waits for them, and quotes the state they give at the start of the
    # capped interval
    with pytest.raises(StiffnessError, match="more than 4096 substeps on") as info:
        _kernel(MODE_PARAMS, 1, 600.0)
    quoted = re.search(r"on \[(.+), (.+)\], from \((.+), (.+)\)$", str(info.value))
    lo, hi, u, th = map(float, quoted.groups())
    taus = np.linspace(0.0, 600.0, stability.MODE_POINTS)
    (i,) = np.flatnonzero(taus == lo)
    assert taus[i + 1] == hi
    # every interval before it is solved within the cap, to that state
    head = _kernel(MODE_PARAMS, 1, lo, t_eval=taus[:i + 1])
    assert tuple(head.y[:, -1]) == (u, th)
    ref = _radau_mode(MODE_PARAMS, 1, (1.0, 1.0), lo, taus[:i + 1])
    assert np.abs(ref[:, -1] - (u, th)).max() <= 1e-6 * np.abs(ref).max()


def test_stiff_horizon_matches_radau():
    # the stiff tail of mode 1 to tau = 100 (h k x reaches 5e20 on an output interval),
    # past the propagator's cap of 4096 substeps in places, in closed form from
    # tau = 5.5; compared where the state is above atol
    traj = integrate_mode(MODE_PARAMS, 1, (1.0, 1.0), 100.0)
    head = traj.taus <= 30.0
    u, th = _radau_mode(MODE_PARAMS, 1, (1.0, 1.0), 30.0, traj.taus[head])
    scale = np.abs(u).max()
    assert np.abs(traj.u[head] - u).max() <= 1e-9 * scale
    assert np.abs(traj.theta[head] - th).max() <= 1e-9 * scale



# The propagator kernel on (..., 2, 2) stacks with NumPy's matmul, from the
# formulas as printed: the reference that the entrywise kernel of _magnus must
# match to rounding.
def _stacked_expm2(w):
    a, b, c, d = w[..., 0, 0], w[..., 0, 1], w[..., 1, 0], w[..., 1, 1]
    m, p = 0.5 * a + 0.5 * d, 0.5 * a - 0.5 * d
    q, r, sign = np.abs(p), np.sqrt(np.abs(b)) * np.sqrt(np.abs(c)), np.sign(b) * np.sign(c)
    with np.errstate(all="ignore"):
        delta = np.where(sign >= 0, np.hypot(q, r), np.sqrt(np.abs(q - r)) * np.sqrt(q + r))
        oscillating = (sign < 0) & (q < r)
        large = ~oscillating & (delta >= 1.0)
        big = m + np.copysign(delta, m)
        small = (a / big) * d - (b / big) * c
        e_up, e_down = np.exp(np.where(m >= 0, (big, small), (small, big)))
        d_q = sign * r * (r / (delta + q))
        d_plus, d_minus = np.where(p >= 0, (delta + q, d_q), (d_q, delta + q))
        cosh = np.exp(m) * np.where(oscillating, np.cos(delta), np.cosh(delta))
        sinhc = np.exp(m) * np.where(delta == 0.0, 1.0, np.where(oscillating, np.sin(delta),
                                                                 np.sinh(delta)) / delta)
        s = np.where(large, (e_up - e_down) / (2.0 * delta), sinhc)
        d0 = np.where(large, (e_up * d_plus + e_down * d_minus) / (2.0 * delta), cosh + sinhc * p)
        d1 = np.where(large, (e_up * d_minus + e_down * d_plus) / (2.0 * delta), cosh - sinhc * p)
    return np.stack([np.stack([d0, s * b], -1), np.stack([s * c, d1], -1)], -2)


def _commutator(x, y):
    return x @ y - y @ x


def _stacked_propagators(matrix, lo, hi, m):
    h = ((hi - lo) / m)[:, None, None]
    with np.errstate(over="ignore", invalid="ignore"):
        a = matrix(lo[:, None, None] + h * (np.arange(m)[:, None] + _magnus._NODES))
        a1, a2, a3, h = a[:, :, 0], a[:, :, 1], a[:, :, 2], h[..., None]
        # Blanes, Casas & Ros (2000), and its truncation after [alpha1, alpha2]
        b1 = h * a2
        b2 = (math.sqrt(15.0) / 3.0) * h * (a3 - a1)
        b3 = (10.0 / 3.0) * h * (a3 - 2.0 * a2 + a1)
        c12 = _commutator(b1, b2)
        six = b1 + b3 / 12.0 + _commutator(-20.0 * b1 - b3 + c12,
                                           b2 - _commutator(b1, 2.0 * b3 + c12) / 60.0) / 240.0
        four = b1 + b3 / 12.0 - c12 / 12.0
        # h |A| at the nodes, Frobenius, after the similarity diag(1, t) that makes
        # |a12| = |a21|
        t = np.sqrt(np.abs(a[..., 1, 0] / a[..., 0, 1]))
        balanced = a.copy()
        balanced[..., 0, 1] *= t
        balanced[..., 1, 0] /= t
        size = h[..., 0, 0] * np.linalg.norm(balanced, axis=(-2, -1)).max(axis=-1)
        omega = np.where((size <= _magnus.CONVERGENT)[..., None, None], six, four)
        p = _stacked_expm2(omega)
        while p.shape[1] > 1:
            p = p[:, 1::2] @ p[:, 0::2]
    return p[:, 0]


@pytest.mark.parametrize("m", [1, 2, 8, 32])
@pytest.mark.parametrize("j", [1, 40])
@pytest.mark.parametrize("theta0, kappa", BOX)
def test_entrywise_propagators_match_the_stacked_kernel(theta0, kappa, j, m):
    # only the rounding differs: the kernel carries Omega on I, D, S and F
    params = MaterialParams(n=0.05, alpha=0.5, kappa=kappa, theta0=theta0)
    t = np.linspace(0.0, _energy_horizon(params) if j == 1 else 10.0, stability.MODE_POINTS)

    def k(tau):
        return params.kappa * np.exp(params.log_c0 + params.alpha * tau)

    a11, a12, a21, _ = stability._mode_entries(params, 0.0, j)
    ours = _magnus._propagators((a11, a12, a21),
                                lambda tau: stability._mode_entries(params, k(tau), j)[3],
                                t[:-1], t[1:], m)
    ref = _stacked_propagators(lambda tau: mode_matrix(params, k(tau), j), t[:-1], t[1:], m)
    ref = ref.reshape(-1, 4)
    assert np.all(np.isfinite(ref))
    assert np.all(np.abs(ours - ref).max(axis=1) <= 1e-14 * np.abs(ref).max(axis=1))


# nfev of modes 1-3 to the energy horizon and of mode 40 to tau = 10 at each BOX
# point, as step doubling chose it with _stacked_propagators for its kernel
STACKED_NFEV = {(-1.0, 0.01): (46119, 112287, 42531, 14643),
                (-1.0, 0.2): (29919, 50823, 13035, 11091),
                (0.0, 0.1): (30603, 51303, 13239, 11091),
                (1.0, 0.01): (41295, 97023, 23007, 11679),
                (1.0, 0.2): (24459, 35355, 13671, 11259)}


@pytest.mark.parametrize("theta0, kappa", BOX)
def test_step_doubling_does_the_work_of_the_stacked_kernel(theta0, kappa):
    params = MaterialParams(n=0.05, alpha=0.5, kappa=kappa, theta0=theta0)
    tau_end = _energy_horizon(params)
    results = [_kernel(params, j, end) for j, end in ((1, tau_end), (2, tau_end), (3, tau_end),
                                                       (40, 10.0))]
    assert tuple(int(r.nfev) for r in results) == STACKED_NFEV[theta0, kappa]

# (mode, tau_end) of two regimes: a non-stiff mode, and a stiff one (over 2e4
# explicit steps)
ROUTES = {"nonstiff": (1, 2.0), "stiff": (40, 5.0)}


@pytest.mark.parametrize("route", ["nonstiff", "stiff"])
@pytest.mark.parametrize("tau_eval, match", [
    ([2.0, 1.0, 0.5], "sorted"), ([0.5, 1.0, 1.0], "sorted"), ([0.5, 1.0, 7.0], "within"),
    ([-1.0, 0.5], "within"), ([0.5, math.nan], "within"), ([[0.5, 1.0]], "1-dimensional"),
])
def test_tau_eval_is_checked_on_both_routes(route, tau_eval, match):
    j, tau_end = ROUTES[route]
    with pytest.raises(ParameterError, match=match):
        integrate_mode(MODE_PARAMS, j, (1.0, 1.0), tau_end, tau_eval=tau_eval)


@pytest.mark.parametrize("route", ["nonstiff", "stiff"])
def test_tau_eval_samples_every_point(route):
    j, tau_end = ROUTES[route]
    tau_eval = [0.0, 0.5, 1.0, tau_end]
    traj = integrate_mode(MODE_PARAMS, j, (1.0, 1.0), tau_end, tau_eval=tau_eval)
    assert traj.taus.tolist() == tau_eval and traj.u.size == traj.theta.size == 4
    u, th = _radau_mode(MODE_PARAMS, j, (1.0, 1.0), tau_end, tau_eval)
    scale = max(np.abs(u).max(), np.abs(th).max())
    assert np.abs(traj.u - u).max() <= 1e-9 * scale
    assert np.abs(traj.theta - th).max() <= 1e-9 * scale
    if route == "nonstiff":
        assert traj.u[-1] == pytest.approx(13.93364, rel=1e-5)
    # without tau = 0 the solve still starts there; the values are solved for, not interpolated
    later = integrate_mode(MODE_PARAMS, j, (1.0, 1.0), tau_end, tau_eval=tau_eval[1:])
    assert later.taus.tolist() == tau_eval[1:]
    assert np.allclose(later.u, traj.u[1:], rtol=1e-9, atol=0.0)
    assert integrate_mode(MODE_PARAMS, j, (1.0, 1.0), tau_end, tau_eval=[]).u.size == 0


def test_a_mode_switches_where_its_state_is_exactly_zero():
    # modes --kappa 0.01 --theta0 -1 --j 40 --tau-end 10: the propagated state is
    # exactly (+0, +0) from tau = 3.286, though the slow-manifold series holds only
    # from 6.706; zero lies on the manifold
    params = MaterialParams(n=0.05, alpha=0.5, kappa=0.01, theta0=-1.0)
    traj = integrate_mode(params, 40, (1.0, 1.0), 10.0)
    zero = np.flatnonzero((traj.u == 0.0) & (traj.theta == 0.0))
    assert zero.size and zero[-1] == traj.taus.size - 1 and np.all(np.diff(zero) == 1)
    assert not np.signbit(traj.u[zero]).any() and not np.signbit(traj.theta[zero]).any()
    assert traj.slow_manifold_tau == traj.taus[zero[0]] == pytest.approx(3.286, abs=1e-3)


def test_t_eval_is_checked_as_scipy_checks_it():
    from scipy.integrate import solve_ivp as scipy_solve_ivp

    def decay(t, y):
        return -y

    for t_eval, match in (([[0.5, 1.0]], "1-dimensional"), ([-1.0, 0.5], "within"),
                          ([0.5, 1.5], "within"), ([1.0, 0.5], "sorted"),
                          ([0.5, 0.5], "sorted")):
        with pytest.raises(ValueError, match=match):
            _magnus.check_t_eval(t_eval, (0.0, 1.0))
        with pytest.raises(ValueError, match=match):
            scipy_solve_ivp(decay, (0.0, 1.0), [1.0], t_eval=t_eval)
    # SciPy lets NaN through; it is not a point of [t0, t1]
    with pytest.raises(ValueError, match="within"):
        _magnus.check_t_eval([0.5, math.nan], (0.0, 1.0))
    # the ends of t_span and an empty t_eval are allowed
    assert _magnus.check_t_eval([0.0, 1.0], (0.0, 1.0)).tolist() == [0.0, 1.0]
    assert _magnus.check_t_eval([], (0.0, 1.0)).size == 0


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
            / params.alpha), rel=1e-12, abs=0)
    sigma_T = 1.0 / (params.alpha * cert.T + params.c0)
    assert cert.A * params.alpha ** 2 / (2 * params.n) * sigma_T == pytest.approx(
        params.kappa, rel=1e-10)


@pytest.mark.parametrize("n, alpha, kappa", [(0.05, 0.5, 0.5), (0.002719, 8.389, 0.01418),
                                             (1.226, 0.3959, 1e-300)])
def test_certificate_weight_is_the_simulators(n, alpha, kappa):
    # the certificate and the simulator's energy diagnostic take A from one closed form;
    # the energy column and the metastability golden's energy_weight_A rest on its bits
    A = energy_certificate(MaterialParams(n=n, alpha=alpha, kappa=kappa)).A
    assert A == float(energy_weight(n, alpha))
    assert A == 1.1 * 2.0 * (1.0 / math.pi ** 2) * (n + 1.0) ** 2 / (alpha * n)


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


# the two inputs on which the propagator alone reached its substep cap, and modes 40
# and 20 from a start off their slow manifold: (params, modes, tau_end)
STIFF_CASES = {
    "modes-600": (MODE_PARAMS, (1,), 600.0),
    "energy-k0-3e9": (MaterialParams(n=0.002719, alpha=8.389, kappa=0.01418, theta0=3.11),
                      (1, 2), 5.811),
    "mode-40-layer": (MaterialParams(n=0.05, alpha=0.5, kappa=0.2, theta0=1.0), (40,), 10.0),
    "mode-20-layer": (MaterialParams(n=0.05, alpha=0.5, kappa=0.1, theta0=1.0), (20,), 5.0),
}


@pytest.mark.parametrize("case", list(STIFF_CASES))
def test_stiff_cases_match_radau(case):
    params, modes, tau_end = STIFF_CASES[case]
    for j in modes:
        traj = integrate_mode(params, j, (1.0, 1.0), tau_end)
        assert traj.slow_manifold_tau is not None
        head = traj.taus <= 30.0
        u, th = _radau_mode(params, j, (1.0, 1.0), min(tau_end, 30.0), traj.taus[head])
        scale = np.abs(u).max()
        assert np.abs(traj.u[head] - u).max() <= 1e-11 * scale, j
        assert np.abs(traj.theta[head] - th).max() <= 1e-11 * scale, j
    if case == "modes-600":     # the propagator alone stops at tau = 18.5
        assert 5.0 < traj.slow_manifold_tau < 6.0
    elif case == "energy-k0-3e9":   # on the manifold from the start; k(0) = 3e9
        assert traj.slow_manifold_tau == 0.0
    elif case == "mode-40-layer":   # the series holds from tau = 0; the switch waits
        grid = np.linspace(0.0, tau_end, stability.MODE_POINTS)   # out the initial layer
        assert stability._SlowManifold(params, 40, grid, 1e-10).first == 0
        assert traj.slow_manifold_tau == grid[1]
    else:   # the layer outlasts the series' first point: the propagator runs on past it
        grid = np.linspace(0.0, tau_end, stability.MODE_POINTS)
        assert stability._SlowManifold(params, 20, grid, 1e-10).first == 2
        (switch,) = np.flatnonzero(grid == traj.slow_manifold_tau)
        assert switch > 2
        full = _kernel(params, 20, tau_end).y[:, :switch + 1]
        assert np.array_equal(full, np.stack([traj.u, traj.theta])[:, :switch + 1])


def test_magnus_work_is_bounded(monkeypatch):
    # no interval of the 3x3 stability box, or of the stiff cases, takes more than 64
    # substeps (the propagator alone took up to 4096)
    substeps = []
    real = _magnus._propagators

    def recorded(fixed, a22, lo, hi, m):
        substeps.append(m)
        return real(fixed, a22, lo, hi, m)

    monkeypatch.setattr(_magnus, "_propagators", recorded)
    for theta0 in (-1.0, 0.0, 1.0):
        for kappa in (0.01, 0.1, 0.2):
            params = MaterialParams(n=0.05, alpha=0.5, kappa=kappa, theta0=theta0)
            for j, tau_end in ((1, _energy_horizon(params)), (2, _energy_horizon(params)),
                               (3, _energy_horizon(params)), (40, 10.0)):
                integrate_mode(params, j, (1.0, 1.0), tau_end)
    for params, modes, tau_end in STIFF_CASES.values():
        for j in modes:
            integrate_mode(params, j, (1.0, 1.0), tau_end)
    assert substeps and max(substeps) <= 64


@pytest.mark.parametrize("j, tau_span, theta0, kappa", [
    (2, (8.0, 12.0), 0.3, 0.1),     # K from 250 to 1.4e4
    (40, (0.0, 2.0), 1.0, 0.2)])    # K from 5.2e3, with alpha x / K up to 1.5
def test_series_reproduces_the_manifold_of_a_riccati_solve(j, tau_span, theta0, kappa):
    from scipy.integrate import solve_ivp as scipy_solve_ivp
    params = MaterialParams(n=0.05, alpha=0.5, kappa=kappa, theta0=theta0)
    n, alpha, x = params.n, params.alpha, (j * math.pi) ** 2
    c = stability._manifold_series(params, x)
    assert c[0] == n + 1.0 and c[1] == n * x * c[0]
    assert c[2] == (alpha + n * x) * c[1] - alpha * x * (c[0] * c[0])

    def K(tau):
        return kappa * math.exp(params.log_c0 + alpha * tau) * x

    def riccati(tau, m):
        return (n + 1.0) - (alpha + K(tau)) * m - m * (alpha * x * m - n * x)

    def jac(tau, m):
        return [[-(alpha + K(tau)) - 2.0 * alpha * x * m[0] + n * x]]

    # from m = 0, off the manifold, which attracts at rate about K
    taus = np.linspace(tau_span[0] + 0.5, tau_span[1], 50)
    sol = scipy_solve_ivp(riccati, tau_span, [0.0], method="Radau", rtol=1e-13, atol=1e-20,
                          t_eval=taus, jac=jac)
    eps = np.array([1.0 / K(tau) for tau in taus])
    series = np.polynomial.polynomial.polyval(eps, np.r_[0.0, c[:-1]])
    assert np.abs(series / sol.y[0] - 1.0).max() <= 1e-12


def test_k_x_past_the_float_range_is_taken_in_closed_form():
    # mode 40 to tau = 1415: k(tau) x overflows from tau of about 1405 while k stays
    # finite, where the propagator alone stopped on A h; k past the float range, from
    # tau of about 1424, is still refused
    params = MaterialParams(n=0.05, alpha=0.5, kappa=0.2, theta0=1.0)
    traj = integrate_mode(params, 40, (1.0, 1.0), 1415.0)
    assert traj.u[-1] == 0.0 and traj.theta[-1] == 0.0
    with pytest.raises(StiffnessError, match=r"A\(t\) h is not finite on"):
        _kernel(params, 40, 1415.0)
    with pytest.raises(StiffnessError, match=r"k\(tau\) is not finite on"):
        integrate_mode(params, 40, (1.0, 1.0), 1430.0)
