import math
from dataclasses import fields
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.interpolate import CubicHermiteSpline

import shearlab.orbit as orbit
from shearlab import (
    MaxStepsError,
    ParameterError,
    RegionExitError,
    UnresolvedTailError,
    PlanarParams,
    vector_field,
    jacobian,
    equilibria,
    shoot_heteroclinic,
    estimate_kappa1,
    reparametrize,
)

REF = PlanarParams(n=0.1, alpha=0.5, nu=0.1)


@pytest.fixture(scope="module")
def ref_orbit():
    return shoot_heteroclinic(REF)


def test_params_validation():
    with pytest.raises(ParameterError):
        PlanarParams(n=0.0, alpha=0.5, nu=0.1)
    with pytest.raises(ParameterError):
        PlanarParams(n=0.1, alpha=0.5, nu=0.0)
    assert REF.c_nu == pytest.approx(1.22, rel=1e-14, abs=0)
    assert REF.c_nu > 1.0


@pytest.mark.parametrize("field", ["n", "alpha", "nu"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_planar_parameter_is_named(field, value):
    # NaN passes every "<= 0" test; inf overflowed later, in the shoot
    values = {"n": 0.1, "alpha": 0.5, "nu": 0.1, field: value}
    with pytest.raises(ParameterError, match=f"^{field} must be finite and > 0"):
        shoot_heteroclinic(PlanarParams(**values))


def test_field_vanishes_at_equilibria():
    for p in (REF, PlanarParams(n=0.05, alpha=1.0, nu=0.5)):
        for point in (p.node, p.saddle):
            da, db = vector_field(p, point)
            assert abs(da) < 1e-14 and abs(db) < 1e-14


def test_field_on_parabola_boundary():
    # on b = a^2 the a-flow stalls and b decreases:
    # db/deta = (alpha/(nu n)) (a^2 - 1) < 0 for a in (0, 1)
    p = REF
    a = 0.5
    da, db = vector_field(p, (a, a * a))
    assert da == pytest.approx(0.0, abs=1e-15)
    assert db == pytest.approx(p.alpha / (p.nu * p.n) * (a * a - 1.0), rel=1e-12, abs=0)
    assert db < 0


def test_field_guards_nonpositive_b():
    with pytest.raises(ParameterError):
        vector_field(REF, (0.5, 0.0))


def test_equilibria_node():
    node, saddle = equilibria(REF)
    assert node.kind == "repelling-node"
    assert node.eigenvalues[0] == 1.0
    assert node.eigenvalues[1] == pytest.approx(61.0, rel=1e-12, abs=0)
    assert node.eigenvalues[1] > 1.0
    assert np.allclose(node.eigenvectors[0], [1.0, 0.0])
    assert np.allclose(node.eigenvectors[1], [0.0, 1.0])


def test_equilibria_saddle_reference_values():
    # M = (alpha/(n nu)) c_nu = 61; lambda = (59 +- sqrt(59^2 + 400)) / 2
    node, saddle = equilibria(REF)
    root = math.sqrt(59.0 ** 2 + 400.0)
    assert saddle.eigenvalues[0] == pytest.approx((59.0 - root) / 2.0, rel=1e-12, abs=0)
    assert saddle.eigenvalues[1] == pytest.approx((59.0 + root) / 2.0, rel=1e-12, abs=0)
    assert saddle.kind == "saddle"
    # both roots satisfy the characteristic polynomial of the Jacobian
    J = jacobian(REF, REF.saddle)
    for lam in saddle.eigenvalues:
        char = lam * lam - np.trace(J) * lam + np.linalg.det(J)
        assert abs(char) < 1e-9 * max(1.0, lam * lam)


def test_equilibria_match_numpy_eig():
    for p in (REF, PlanarParams(n=0.05, alpha=1.0, nu=0.05),
              PlanarParams(n=0.1, alpha=0.5, nu=0.5)):
        node, saddle = equilibria(p)
        for info, point in ((node, p.node), (saddle, p.saddle)):
            w = np.sort(np.linalg.eigvals(jacobian(p, point)).real)
            assert np.allclose(np.sort(info.eigenvalues), w, rtol=1e-10)


def test_stable_eigenvalue_keeps_its_digits_at_large_lambda2():
    # lambda2 = 2e5: 0.5 (m - root) cancels about 11 digits of m = lambda2 - 2;
    # lambda_minus from the product of the roots satisfies the characteristic
    # polynomial, evaluated exactly on the floats, to round-off
    for p in (PlanarParams(n=0.01, alpha=20.0, nu=0.01), REF, PlanarParams(n=1.0, alpha=1.0, nu=1.0)):
        m = Fraction(p.alpha) / (Fraction(p.n) * Fraction(p.nu)) * (
            1 + Fraction(p.nu) * (Fraction(p.n) + 1) / Fraction(p.alpha)) - 2
        product = -2 * Fraction(p.alpha) / (Fraction(p.n) * Fraction(p.nu))
        for lam in equilibria(p)[1].eigenvalues:
            lam = Fraction(lam)
            char = lam * lam - m * lam + product
            assert abs(char) <= 4e-16 * (abs(m * lam) + abs(product)), float(char)


def test_stable_eigenvalue_where_m_squared_overflows():
    # n = 1e-300, alpha = 1e300 and nu = 1e-300 put m = lambda2 - 2 at 6e300, 1e302
    # and 5e300, where m^2 overflows: the larger root is m to its rounding (4 |product|
    # < 8 (m + 1)), and both roots satisfy the characteristic polynomial, evaluated
    # exactly on the floats, to round-off.  Where m^2 is finite, the roots keep the
    # bits of 0.5 (m + sqrt(m^2 - 4 product)) and product over it
    for key in ((1e-300, 0.5, 0.1), (0.1, 1e300, 0.1), (0.1, 0.5, 1e-300)):
        p = PlanarParams(*key)
        m = Fraction(p.alpha) / (Fraction(p.n) * Fraction(p.nu)) * (
            1 + Fraction(p.nu) * (Fraction(p.n) + 1) / Fraction(p.alpha)) - 2
        product = -2 * Fraction(p.alpha) / (Fraction(p.n) * Fraction(p.nu))
        lam_minus, lam_plus = equilibria(p)[1].eigenvalues
        assert lam_plus == p.lambda2 - 2.0 and -2.0 <= lam_minus < -1.6
        for lam in (Fraction(lam_minus), Fraction(lam_plus)):
            char = lam * lam - m * lam + product
            assert abs(char) <= Fraction("4e-16") * (abs(m * lam) + abs(product)), key
    for p in (REF, *(PlanarParams(*key) for key in SWEEP)):
        m = p.lambda2 - 2.0
        product = -2.0 * p.alpha / (p.n * p.nu)
        lam_plus = 0.5 * (m + math.sqrt(m * m - 4.0 * product))
        assert equilibria(p)[1].eigenvalues == (product / lam_plus, lam_plus)


def test_stable_direction_points_into_region():
    # 0 < 2 + lambda_minus < 2 across a parameter sweep
    for n in (0.05, 0.1, 0.5):
        for alpha in (0.3, 0.5, 1.0):
            for nu in (0.01, 0.1, 1.0, 10.0):
                _, saddle = equilibria(PlanarParams(n=n, alpha=alpha, nu=nu))
                lam_minus = saddle.eigenvalues[0]
                assert 0.0 < 2.0 + lam_minus < 2.0


def test_shooter_endpoints_and_region(ref_orbit):
    p = REF
    path = ref_orbit
    # backward end within tol of the node, forward end within eps of the saddle
    assert math.hypot(path.a[0], path.b[0] - 1.0 / p.c_nu) <= 1.001 * path.tol
    assert math.hypot(path.a[-1] - 1.0, path.b[-1] - 1.0) <= 1.001 * path.eps
    assert np.all(path.a >= -1e-12)
    assert np.all(path.a <= 1.0 + 1e-9)
    assert np.all(path.b <= 1.0 + 1e-9)
    assert np.all(path.a ** 2 <= path.b + 1e-9)
    assert np.all(np.diff(path.a) > 0)


def test_shooter_rejects_bad_eps():
    with pytest.raises(ParameterError):
        shoot_heteroclinic(REF, eps=1e-2)
    with pytest.raises(ParameterError):
        shoot_heteroclinic(REF, eps=0.0)
    # tol in (0, 1): at 1 and above, tol^2 leaves the node series' range
    for tol in (0.0, -1e-8, math.nan, 1.0, 1e300):
        with pytest.raises(ParameterError, match="tol"):
            shoot_heteroclinic(REF, tol=tol)


def test_region_negatively_invariant_on_boundaries():
    # one backward Euler step from the bounding curves stays in the closure
    p = REF
    h = 1e-4
    for a in np.linspace(0.05, 0.95, 10):
        for state in ((a, 1.0), (a, a * a)):        # l1 and l2 pieces
            da, db = vector_field(p, state)
            back = (state[0] - h * da, state[1] - h * db)
            assert -1e-12 <= back[0] <= 1.0 + 1e-12
            assert back[0] ** 2 <= back[1] + 1e-7
            assert back[1] <= 1.0 + 1e-12


def test_interior_monotonicity_excludes_cycles(ref_orbit):
    # da/deta > 0 at every accepted interior sample
    da, _ = vector_field(REF, (ref_orbit.a, ref_orbit.b))
    assert np.all(da[1:-1] > 0)


def test_node_tail_slope_of_a(ref_orbit):
    path = ref_orbit
    a_min = path.a[0]
    window = path.a <= 10.0 * a_min
    slope = np.polyfit(path.eta[window], np.log(path.a[window]), 1)[0]
    assert slope == pytest.approx(1.0, rel=0.02)


def _assert_b_slaved(p, path):
    # near the node b is slaved to the weak direction:
    # (b - 1/c_nu) / a^2 -> ((n+1)/n) / (lambda2 - 2), so log(b - 1/c_nu) has
    # asymptotic slope 2, not lambda2
    lam2 = equilibria(p)[0].eigenvalues[1]
    w2 = (p.n + 1.0) / p.n / (lam2 - 2.0)
    window = (path.a >= 1e-4) & (path.a <= 1e-2)
    ratio = (path.b[window] - 1.0 / p.c_nu) / path.a[window] ** 2
    assert np.allclose(ratio, w2, rtol=1e-3)
    slope = np.polyfit(path.eta[window],
                       np.log(path.b[window] - 1.0 / p.c_nu), 1)[0]
    assert slope == pytest.approx(2.0, abs=0.01)


def test_node_tail_slaving_of_b(ref_orbit):
    _assert_b_slaved(REF, ref_orbit)


SWEEP = [(n, alpha, nu) for n in (0.05, 0.1) for alpha in (0.5, 1.0)
         for nu in (0.05, 0.1, 0.5)]


@pytest.mark.parametrize("n, alpha, nu", SWEEP)
def test_node_tail_slaving_of_b_across_sweep(n, alpha, nu):
    p = PlanarParams(n=n, alpha=alpha, nu=nu)
    _assert_b_slaved(p, shoot_heteroclinic(p))


def test_kappa1_plateau_and_positivity(ref_orbit):
    kappa1 = estimate_kappa1(ref_orbit)
    assert kappa1 > 0
    # plateau value is the tail limit of a e^-eta
    q = ref_orbit.a * np.exp(-ref_orbit.eta)
    assert kappa1 == pytest.approx(q[0], rel=1e-6)


def test_kappa1_past_the_float_range_is_unresolved():
    # lambda2 = 10.2, mu_s = -8.1e-3: the head and the body span eta down to -1740,
    # and e^(-C) = e^1721 overflows
    path = shoot_heteroclinic(PlanarParams(n=0.109, alpha=0.01717, nu=4.739))
    with pytest.raises(UnresolvedTailError, match=r"overflows .*log kappa1 = 172\d\.\d"):
        estimate_kappa1(path)


def test_reparametrize_fixed_point(ref_orbit):
    kappa1 = estimate_kappa1(ref_orbit)
    path = reparametrize(ref_orbit, 1.0 / kappa1)
    assert path.eta0 == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(path.eta, ref_orbit.eta)


def test_reparametrize_matches_amplitude(ref_orbit):
    sigma0 = 1.88
    path = reparametrize(ref_orbit, sigma0)
    q = path.a * np.exp(-path.eta)
    assert q[0] == pytest.approx(1.0 / sigma0, rel=1e-3)
    # the shift and the new coefficient come from logs alone
    assert path.log_kappa1 == -math.log(sigma0)
    assert path.eta0 == -ref_orbit.log_kappa1 - math.log(sigma0)
    assert estimate_kappa1(path) == pytest.approx(1.0 / sigma0, rel=1e-12, abs=0)
    assert path.sigma0 == sigma0
    with pytest.raises(ParameterError):
        reparametrize(ref_orbit, -1.0)


@pytest.mark.parametrize("sigma0", [1.88, 1.0, 1e-300, 1e306, 1.7e308])
def test_reparametrized_kappa1_is_one_over_sigma0(ref_orbit, sigma0):
    # e^(-log sigma0) is 3.3e-14 off at 1e306: log sigma0's rounding turns relative
    assert estimate_kappa1(reparametrize(ref_orbit, sigma0)) == 1.0 / sigma0


def test_shooting_stable_in_eps(ref_orbit):
    # halving eps changes the orbit, as a function a -> b, by < 1e-6
    other = shoot_heteroclinic(REF, eps=5e-7)
    a_grid = np.linspace(0.05, 0.95, 200)
    b1 = np.interp(a_grid, ref_orbit.a, ref_orbit.b)
    b2 = np.interp(a_grid, other.a, other.b)
    assert np.max(np.abs(b1 - b2)) < 1e-6


def test_orbit_path_keeps_no_slopes():
    # the interpolant forms da/deta and db/deta from the field; the path stores none
    assert [f.name for f in fields(orbit.OrbitPath)] == [
        "params", "eta", "a", "b", "d", "eps", "tol", "a_junction", "junction_gap",
        "saddle_junction", "saddle_truncation", "saddle_terms", "node_terms", "a_saddle",
        "body_steps", "log_kappa1", "eta0", "sigma0"]


def test_hermite_interpolation_preserves_monotonicity(ref_orbit):
    eta = np.linspace(ref_orbit.eta[0], ref_orbit.eta[-1], 20001)
    a, b = ref_orbit.states_at(eta)
    assert np.all(np.diff(a) > 0)
    assert np.all(a > 0)
    assert np.all(b > 0)
    with pytest.raises(ParameterError):
        ref_orbit.states_at(ref_orbit.eta[-1] + 1.0)


@pytest.mark.parametrize("n, alpha, nu", SWEEP)
def test_hermite_matches_scipy_cubic_hermite_spline(n, alpha, nu):
    path = reparametrize(shoot_heteroclinic(PlanarParams(n=n, alpha=alpha, nu=nu)), 1.3)
    eta = path.eta
    rng = np.random.default_rng(7)
    points = np.concatenate([
        eta, 0.5 * (eta[:-1] + eta[1:]), rng.uniform(eta[0], eta[-1], 2000),
        [eta[0], np.nextafter(eta[0], np.inf), np.nextafter(eta[-1], -np.inf), eta[-1]]])
    a, b = path.states_at(points)
    da, db = vector_field(path.params, (path.a, path.b))
    la = CubicHermiteSpline(eta, np.log(path.a), da / path.a)
    lb = CubicHermiteSpline(eta, np.log(path.b), db / path.b)
    assert np.array_equal(a, np.exp(la(points)))
    assert np.array_equal(b, np.exp(lb(points)))
    # a scalar gives a 0-d result, as the spline does
    a0, b0 = path.states_at(eta[-1])
    assert np.ndim(a0) == 0 and a0 == np.exp(la(eta[-1])) and b0 == np.exp(lb(eta[-1]))


def test_acceptance_sweep_orbits_exist():
    # desk-scale existence across the parameter box
    for n, alpha, nu in SWEEP:
        p = PlanarParams(n=n, alpha=alpha, nu=nu)
        path = shoot_heteroclinic(p)
        assert math.hypot(path.a[0], path.b[0] - 1.0 / p.c_nu) <= 1.001 * path.tol
        assert np.all(np.diff(path.a) > 0)


def _junction(path):
    """(s_r, a_r, b_r): the head's first sample, W(zeta_r) at eta = log(zeta_r/eps)/mu_s
    as the shooter computes it; the first state of the Taylor body, if there is one."""
    mu = equilibria(path.params)[1].eigenvalues[0]
    (i,) = np.flatnonzero(path.eta == math.log(path.saddle_junction / path.eps) / mu)
    return -path.eta[i], path.a[i], path.b[i]


def _reference_shoot(p, start, tol=1e-8, to_node=False, **solver):
    """SciPy's solve_ivp on vector_field from ``start`` = (s, a, b) to its event:
    a = a_n, the node series' reach, or the node when ``to_node``."""
    s_j, a_j, b_j = start
    P = p.node
    a_n = orbit._slow_manifold(p).reach

    def backward(s, y):
        da, db = vector_field(p, y)
        return (-da, -db)

    def stop(s, y):
        if to_node:
            return math.hypot(y[0] - P[0], y[1] - P[1]) - tol
        return y[0] - a_n

    stop.terminal = True
    stop.direction = -1
    return solve_ivp(backward, (s_j, s_j + 400.0), (a_j, b_j), events=stop, **solver)


def _worst_error(exact, s, y):
    """Largest relative deviation of each component from the dense reference."""
    keep = s <= exact.t[-1]
    ref = exact.sol(s[keep])
    return np.max(np.abs(y[:, keep] - ref) / np.abs(ref), axis=1)


def _body_error(p, path):
    """The body's largest relative error in a and in b against SciPy's Radau (rtol
    1e-13, an atol far below every a) from W(zeta_r) to the body's last sample."""
    start = _junction(path)
    body = (path.a >= path.a_junction) & (path.eta <= -start[0])
    radau = solve_ivp(lambda s, y: [-v for v in vector_field(p, y)],
                      (start[0], -path.eta[body][0]), start[1:], method="Radau",
                      rtol=1e-13, atol=1e-30, dense_output=True,
                      jac=lambda s, y: -jacobian(p, y))
    return _worst_error(radau, -path.eta[body], np.array([path.a[body], path.b[body]]))


@pytest.mark.parametrize("n, alpha, nu", [(0.05, 0.5, 0.05), (0.05, 1.0, 0.5),
                                          (0.1, 0.5, 0.1), (0.1, 1.0, 0.05)])
def test_shooter_matches_vector_field_reference(n, alpha, nu):
    # Where the two series' reaches leave a gap, the shooter's Taylor body
    # against SciPy's Radau on vector_field, both from W(zeta_r): within 1e-13
    # of it, where DOPRI5 at rtol 1e-10 was off by 4e-11 in b.  The first and
    # last cases (lambda2 = 221, 211) have no gap.
    p = PlanarParams(n=n, alpha=alpha, nu=nu)
    path = shoot_heteroclinic(p)
    start = _junction(path)
    tail = path.a < path.a_junction
    if path.body_steps == 0:
        assert start[1] == path.a_saddle == path.a_junction <= orbit._slow_manifold(p).reach
    else:
        assert np.all(_body_error(p, path) <= 1e-13), _body_error(p, path)

    # the series tail against Radau, with RK45 shot on to the node, both from
    # the junction: DOP853 is itself off by up to 1e-8 in b on the stiff tail
    i = int(tail.sum())
    junction = (-path.eta[i], path.a[i], path.b[i])
    radau = _reference_shoot(p, junction, to_node=True, method="Radau", rtol=1e-13,
                             atol=1e-20, dense_output=True)
    rk45 = _reference_shoot(p, junction, to_node=True, method="RK45", rtol=1e-10,
                            atol=1e-14, max_step=0.01, first_step=1.0 / p.lambda2)
    rk45_tail = rk45.y[0] < path.a_junction
    ours = _worst_error(radau, -path.eta[tail], np.array([path.a[tail], path.b[tail]]))
    scipy_rk45 = _worst_error(radau, rk45.t[rk45_tail], rk45.y[:, rk45_tail])
    # from the junction the relative error in a is the phase error in s:
    # Radau's own, accumulated over the tail, so it is bounded outright
    assert ours[0] <= 1e-12 and ours[1] <= 1.01 * scipy_rk45[1], (ours, scipy_rk45)


@pytest.mark.parametrize("key, steps, bound", [
    ((0.05, 0.5, 0.5), 6, 1e-13),             # the sweep's other three bodies
    ((0.1, 0.5, 0.5), 5, 1e-13),
    ((0.1, 1.0, 0.5), 5, 1e-13),
    ((1.0, 1.0, 1.0), 16, 1e-13),             # lambda2 = 3, to the node series' reach 2.2e-8
    ((5.0, 0.5, 0.5), 17, 1e-13),             # lambda2 = 1.4, no node series: to a = 1e-8
    ((0.01982, 0.02816, 2.438), 138, 2e-12),  # mu_s = -0.023, from a slow saddle
    ((0.109, 0.01717, 4.739), 75, 2e-11),     # lambda2 = 10.2, to the reach 1.8e-3
], ids=["0.05-0.5-0.5", "0.1-0.5-0.5", "0.1-1.0-0.5", "3", "1.4", "slow-saddle", "10.2"])
def test_taylor_body_matches_radau(key, steps, bound):
    # DOPRI5 took 213, 229, 183, 1799, 1885, 3269 and 9879 steps on these bodies.
    # The last two bounds are Radau's own error: against a 26-digit Taylor
    # solution (mpmath) Radau is off by 3.7e-13 and 7.8e-12 there, the body by
    # 3.0e-13 and 6.4e-13.
    p = PlanarParams(*key)
    path = shoot_heteroclinic(p)
    assert path.body_steps == steps
    error = _body_error(p, path)
    assert np.all(error <= bound), error


def test_taylor_step_solves_the_field_to_its_order(monkeypatch):
    # Each step's polynomial solves the backward field through h^(p - 1), in
    # exact arithmetic on its float coefficients: a' b + a b - a^3 = 0 (the a
    # row times b) and b' = g (1 + k a^2 - c_nu b), to the rounding of the sums
    # that formed each coefficient: 1e-13 of the same sums taken in absolute value
    p = PlanarParams(n=1.0, alpha=1.0, nu=1.0)
    funs = []

    def recorded(fun, *args, **kwargs):
        funs.append(fun)
        return solve(fun, *args, **kwargs)

    solve = orbit.solve_ivp
    monkeypatch.setattr(orbit, "solve_ivp", recorded)
    shoot_heteroclinic(p)
    n, alpha, nu = (Fraction(v) for v in (p.n, p.alpha, p.nu))
    g, k, c = alpha / (nu * n), (n + 1) * nu / alpha, 1 + nu * (n + 1) / alpha

    def mul(x, y):
        return [sum(x[i] * y[m - i] for i in range(m + 1)) for m in range(len(x))]

    def terms(A, B):
        """The terms of the a row, a' b + a b - a^3, and of the b row,
        b' - g (1 + k a^2 - c_nu b), as series: their sums are the residuals."""
        dA = [(m + 1) * A[m + 1] for m in range(len(A) - 1)] + [0]
        dB = [(m + 1) * B[m + 1] for m in range(len(B) - 1)] + [0]
        a2 = mul(A, A)
        one = [1] + [0] * (len(A) - 1)
        return ((mul(dA, B), mul(A, B), [-v for v in mul(a2, A)]),
                (dB, [-g * v for v in one], [-g * k * v for v in a2], [g * c * v for v in B]))

    for a, b in ((0.7, 0.6), (1e-3, 0.34), (0.2, 0.05)):
        A, B = ([Fraction(v) for v in coef] for coef in funs[0](0.0, a, b))
        assert len(A) == len(B) == orbit._ORDER + 1
        absolute = terms([abs(v) for v in A], [abs(v) for v in B])
        for row, size in zip(terms(A, B), absolute):
            for m in range(orbit._ORDER):
                residual = sum(series[m] for series in row)
                assert abs(residual) <= 1e-13 * sum(abs(series[m]) for series in size), (a, b, m)


def test_a_step_below_the_spacing_of_s_ends_the_solve():
    # coefficients this large ask for a step of 5e-316, which s + h cannot take:
    # the solve returns status -1, where a loop would never end
    sol = orbit.solve_ivp(lambda s, a, b: ([a, 1e300, 0.0], [b, 0.0, 0.0]), (1.0, 2.0),
                          (0.5, 0.5), stop=lambda a, b: a <= 0.1)
    assert sol.status == -1 and sol.nfev == 0 and sol.t.tolist() == [1.0]


def test_series_kappa1_takes_F_from_the_shoots_own_series(monkeypatch, ref_orbit):
    # log kappa1 is -C, formed at the junction with F from the series the shoot
    # built; estimate_kappa1 builds no slow-manifold series again, nor evaluates F
    a_j = ref_orbit.a_junction
    (i,) = np.flatnonzero(ref_orbit.a == a_j)
    f = float(orbit._slow_manifold(REF).F(np.array([a_j * a_j]))[0])
    assert ref_orbit.log_kappa1 == -(ref_orbit.eta[i] - math.log(a_j) - f)
    monkeypatch.setattr(orbit, "_slow_manifold", None)
    assert estimate_kappa1(ref_orbit) == math.exp(ref_orbit.log_kappa1)


@pytest.mark.parametrize("n, alpha, nu", SWEEP)
def test_series_kappa1_matches_a_tight_shot_to_the_node(n, alpha, nu):
    # the closed form at the series tail against a e^-eta at the end of a Taylor
    # body shot from the saddle junction on to a = 1e-8
    p = PlanarParams(n=n, alpha=alpha, nu=nu)
    series = shoot_heteroclinic(p)
    s_r, a_r, b_r = _junction(series)
    shot = orbit._body(p, s_r, a_r, b_r, 1e-8, 1e-8)
    assert shot.y[0][-1] <= 1e-8 < shot.y[0][-2]
    # the junction is the shoot's first sample at or below a = 1e-2: the body
    # sample after it in eta, the one before it in the shoot, lies above
    (i,) = np.flatnonzero(series.a == series.a_junction)
    a_n = orbit._slow_manifold(p).reach
    if series.body_steps:
        # the body's first step at or below the node series' reach ends it
        assert series.a[i] <= a_n < series.a[i + 1]
    else:
        # the saddle series reaches into the node series' reach
        assert series.a[i] == series.a_saddle <= a_n
    kappa1 = estimate_kappa1(series)
    assert kappa1 == pytest.approx(shot.y[0][-1] * math.exp(shot.t[-1]), rel=1e-12, abs=0)
    # from a shallower tail, where e^F(a^2) differs from 1 by ~1e-7
    shallow = shoot_heteroclinic(p, tol=5e-4)
    assert estimate_kappa1(shallow) == pytest.approx(kappa1, rel=1e-14, abs=0)


@pytest.mark.parametrize("n, alpha, nu", SWEEP)
def test_tail_d_over_a2_tends_to_beta1(n, alpha, nu):
    p = PlanarParams(n=n, alpha=alpha, nu=nu)
    path = shoot_heteroclinic(p)
    beta1 = (p.n + 1.0) / p.n / (p.lambda2 - 2.0)
    series = path.a < path.a_junction
    tail = path.a < 1e-2    # the series reaches further; its top is no longer near a^2
    a = path.a[tail]
    gap = np.abs(path.d[tail] / a ** 2 / beta1 - 1.0)
    # the gap is |beta2/beta1| a^2 + O(a^4): it falls like a^2, to round-off at the node
    assert gap[-1] < 1e-3
    assert np.all(gap <= 1.01 * gap[-1] * (a / a[-1]) ** 2 + 1e-14)
    assert gap[0] < 1e-14
    # d matches b - 1/c_nu to b's round-off, and the body's d is exactly that
    assert np.allclose(path.d, path.b - 1.0 / p.c_nu, rtol=0.0, atol=4e-16)
    assert np.array_equal(path.d[~series], path.b[~series] - 1.0 / p.c_nu)
    assert 0.0 < path.junction_gap < 1e-10


def test_fallback_shoots_to_the_node_bit_for_bit(monkeypatch):
    # lambda2 = 3: the node series has no terms (h = 1/c_nu), only a reach of
    # 2.2e-8.  Below the saddle's series head the orbit is the plain Taylor shoot
    # from W(zeta_r) to its first sample at or below that reach, the junction;
    # the series tail runs on below it to a = tol, and kappa1 is the closed form
    # at the junction, which is a e^-eta at the deepest sample to rounding
    p = PlanarParams(n=1.0, alpha=1.0, nu=1.0)
    assert p.lambda2 == 3.0
    a_n = orbit._slow_manifold(p).reach
    assert a_n == pytest.approx(2.236e-8, rel=1e-3, abs=0)
    funs = []

    def recorded(fun, *args, **kwargs):
        funs.append(fun)
        return solve(fun, *args, **kwargs)

    solve = orbit.solve_ivp
    monkeypatch.setattr(orbit, "solve_ivp", recorded)
    path = shoot_heteroclinic(p)
    s_j, a_j, b_j = _junction(path)
    sol = solve(funs[0], (s_j, s_j + 400.0), (a_j, b_j), stop=lambda a, b: a <= a_n)
    (i,) = np.flatnonzero(path.a == path.a_junction)
    body = path.eta <= -s_j
    body[:i] = False
    assert path.saddle_terms == orbit._SADDLE_TERMS and path.node_terms == 0
    assert path.body_steps == sol.nfev == 16
    assert body.sum() == sol.t.size == 1728 and i == 81 and path.eta.size == 3221
    assert path.eta[body].tobytes() == (-sol.t[::-1]).tobytes()
    assert path.a[body].tobytes() == sol.y[0][::-1].tobytes()
    assert path.b[body].tobytes() == sol.y[1][::-1].tobytes()
    assert path.a_junction <= a_n < path.a[i + 1]
    assert path.a[0] == pytest.approx(1e-8, rel=1e-12, abs=0)
    # h = 1/c_nu with no terms: the gap is b - 1/c_nu, about 2 a^2 to b's rounding
    assert path.junction_gap == path.d[i]
    assert abs(path.junction_gap - 2.0 * path.a_junction ** 2) <= np.spacing(path.b[i])
    a_j = path.a_junction
    assert estimate_kappa1(path) == math.exp(math.log(a_j) - path.eta[i] + 1.5 * (a_j * a_j))
    # to the rounding of the exponent, 13.7: its spacing is 1.8e-15
    assert estimate_kappa1(path) == pytest.approx(path.a[0] * math.exp(-path.eta[0]),
                                                  rel=4e-15, abs=0)
    # tol only ends the series tail: a coarse one keeps the series route
    coarse = shoot_heteroclinic(REF, tol=1e-2)
    assert coarse.a_junction > coarse.a[0] == pytest.approx(1e-2, rel=1e-12, abs=0)


@pytest.mark.parametrize("key", [(5.0, 0.5, 0.5), (1.0, 1.0, 1.0), (1.0, 0.5, 0.25),
                                 (2.0, 1.0, 0.1)], ids=["1.4", "3", "4", "6.5"])
def test_coarse_tol_kappa1_matches_the_tight_one(key):
    # the body stops at a_stop = max(reach, tol): at tol 1e-2, above each of these
    # node series' reaches, it stops at a = tol, and kappa1 is the closed form
    # there with the short series' F, off by the O(a^lambda2) and O(a^4) terms h
    # leaves out (3.8e-6 at lambda2 = 1.4); at 1e-4, below the reach at
    # lambda2 = 6.5 (2.5e-3), by 4e-13 at most; a e^-eta alone is off by F(1e-4),
    # about c_nu 5e-5
    p = PlanarParams(*key)
    reach = orbit._slow_manifold(p).reach
    tight = estimate_kappa1(shoot_heteroclinic(p))
    for tol, rel in ((1e-2, 5e-6), (1e-4, 1e-12)):
        path = shoot_heteroclinic(p, tol=tol)
        (i,) = np.flatnonzero(path.a == path.a_junction)
        assert path.a_junction <= max(reach, tol) < path.a[i + 1]
        # the deepest sample, a body's or the tail's, lies within 0.01 in eta of tol
        assert path.a[0] == pytest.approx(tol, rel=1e-2, abs=0)
        assert estimate_kappa1(path) == pytest.approx(tight, rel=rel, abs=0), tol


def _sweep_paths(monkeypatch):
    """The 12 sweep shoots, and the Taylor solve of each that has a body."""
    solves = []

    def counted(*args, **kwargs):
        sol = solve_taylor(*args, **kwargs)
        solves.append(sol)
        return sol

    solve_taylor = orbit.solve_ivp
    monkeypatch.setattr(orbit, "solve_ivp", counted)
    paths = [shoot_heteroclinic(PlanarParams(*key)) for key in SWEEP]
    assert len(solves) == sum(path.body_steps > 0 for path in paths)
    return paths, solves


def _sweep_nfev(monkeypatch):
    """The work of the 12 sweep shoots in RHS calls: each Taylor step forms _ORDER
    orders of coefficients, and each order costs about one RHS call."""
    return sum(sol.nfev for sol in _sweep_paths(monkeypatch)[1]) * orbit._ORDER


def test_sweep_shoots_take_at_most_60_percent_of_the_node_shoot_work(monkeypatch):
    # shot to the node, the 12 sweep orbits took 228,978 RHS calls
    nfev = _sweep_nfev(monkeypatch)
    assert nfev <= 0.6 * 228_978, nfev


def test_sweep_shoots_take_at_most_70_percent_of_the_eps_seed_work(monkeypatch):
    # shot from the eps seed Q - eps r_hat, the 12 sweep orbits took 126,114 RHS
    # calls down to a = A_JUNCTION; about 36 % of them within 1e-2 of Q
    nfev = _sweep_nfev(monkeypatch)
    assert nfev <= 0.7 * 126_114, nfev


def test_gauss_legendre_table_matches_numpy():
    # the tabulated rule on [0, 1] against NumPy's, which errs by up to 1.5e-15
    # in the weights on [-1, 1]
    from numpy.polynomial.legendre import leggauss
    ref_x, ref_w = leggauss(orbit._GAUSS_X.size)
    assert np.allclose(orbit._GAUSS_X, 0.5 * (ref_x + 1.0), rtol=0.0, atol=2e-16)
    assert np.allclose(orbit._GAUSS_W, 0.5 * ref_w, rtol=0.0, atol=1e-15)
    assert abs(math.fsum(orbit._GAUSS_W) - 1.0) <= 2e-16


def _composite_F(node, s):
    """F at each s by a composite 40-point Gauss-Legendre rule on 16 panels of
    F' = 1/(2 (h - s)), h the node series' own truncation."""
    from numpy.polynomial.legendre import leggauss
    x, w = leggauss(40)
    ref = []
    for top in s:
        edges = np.linspace(0.0, top, 17)
        t = (0.5 * (edges[1:] - edges[:-1]))[:, None] * (x + 1.0) + edges[:-1, None]
        f = 0.5 / (node.node_b + np.polyval(node.d_coef, t) - t)
        ref.append(math.fsum((0.5 * (edges[1:] - edges[:-1])[:, None] * w * f).ravel()))
    return ref


@pytest.mark.parametrize("key", [(0.1, 1.0, 0.05), (0.1, 0.5, 0.05), (0.01, 20.0, 0.01)])
def test_F_matches_a_composite_rule_out_to_the_reach(key):
    # F by its series up to s_f, by Gauss-Legendre past it, against the composite
    # rule out to the node series' reach
    node = orbit._slow_manifold(PlanarParams(*key))
    assert 0.0 < node.s_f < node.reach ** 2
    s = np.linspace(0.0, node.reach ** 2, 17)[1:]
    # the series errs by about its first dropped term, _SERIES_TOL, just below s_f
    assert np.allclose(node.F(s), _composite_F(node, s), rtol=2e-15, atol=2 * orbit._SERIES_TOL)


@pytest.mark.parametrize("key, lambda2, terms", [
    ((5.0, 0.5, 0.5), 1.4, 0),    # no beta_m at all
    ((1.0, 0.5, 0.25), 4.0, 0),   # beta_1 = 1 gives only the reach
    ((0.5, 0.2, 0.2), 5.0, 1),    # beta_1 = 1 kept: h - s = 1/c_nu, so r terminates
    ((2.0, 1.0, 0.1), 6.5, 2),
])
def test_slow_manifold_at_small_lambda2(key, lambda2, terms):
    # at small lambda2 the series is short: its h solves the invariance
    # equation 2 s h' (h - s) = g h (c_nu h - 1 - k s) through s^terms, in exact
    # arithmetic on the float coefficients, and F integrates 1/(2 (h - s)) for
    # that same h out to s = 1e-2, where a coarse tol of 0.1 puts the junction
    p = PlanarParams(*key)
    assert p.lambda2 == pytest.approx(lambda2, rel=1e-15, abs=0)
    node = orbit._slow_manifold(p)
    assert node.terms == terms < lambda2 / 2 and len(node.d_coef) == terms + 1
    n, alpha, nu = (Fraction(v) for v in (p.n, p.alpha, p.nu))
    g, k, c = alpha / (nu * n), (n + 1) * nu / alpha, 1 + nu * (n + 1) / alpha
    h = [Fraction(node.node_b), *(Fraction(beta) for beta in node.d_coef[-2::-1])]
    h_s = [h[0], h[1] - 1 if terms else Fraction(-1), *h[2:]]

    def coef(poly_a, poly_b, m):
        return sum(poly_a[i] * poly_b[m - i] for i in range(m + 1)
                   if i < len(poly_a) and m - i < len(poly_b))

    inner = [c * h[0] - 1, (c * h[1] if terms else 0) - k, *(c * beta for beta in h[2:])]
    for m in range(terms + 1):
        lhs = 2 * coef([i * beta for i, beta in enumerate(h)], h_s, m)
        assert abs(lhs - g * coef(h, inner, m)) <= 1e-15, m
    s = np.linspace(0.0, 1e-2, 11)[1:]
    assert np.allclose(node.F(s), _composite_F(node, s), rtol=2e-15, atol=0.0)


@pytest.mark.parametrize("n, alpha, nu", SWEEP)
def test_samples_lie_at_most_max_step_apart_and_the_tail_on_its_eta(n, alpha, nu):
    # head, body and tail alike keep the samples within _MAX_STEP in eta, and
    # each tail sample solves eta = log a + C + F(a^2) with the junction's C
    p = PlanarParams(n=n, alpha=alpha, nu=nu)
    path = shoot_heteroclinic(p)
    assert np.all(np.diff(path.eta) <= orbit._MAX_STEP * (1.0 + 1e-12))
    tail = path.a <= path.a_junction
    C = path.eta[tail] - np.log(path.a[tail]) - orbit._slow_manifold(p).F(path.a[tail] ** 2)
    assert np.ptp(C) <= 1e-13 * abs(C[-1]), np.ptp(C)


def test_sweep_bodies_take_at_most_1000_steps(monkeypatch):
    # The body runs only where neither series reaches: over the 12 sweep points
    # DOPRI5 took 13,433 steps from zeta = 1e-2 down to a = 1e-2, and 884 from
    # the series' reaches; Taylor steps take 25
    paths, solves = _sweep_paths(monkeypatch)
    steps = [path.body_steps for path in paths]
    assert sum(sol.nfev for sol in solves) == sum(steps) <= 40, steps
    assert sum(step == 0 for step in steps) >= 4, steps
    showcase = SWEEP.index((0.1, 0.5, 0.1))
    assert steps[showcase] <= 8, steps


@pytest.mark.parametrize("n, alpha, nu", SWEEP)
def test_saddle_series_is_invariant_at_the_junction(n, alpha, nu):
    # mu_s zeta W'(zeta) = f(W(zeta)), evaluated in exact rational arithmetic on
    # the float coefficients, so it measures the series and not the rounding of
    # its evaluation.  The b row of f is lambda2 times a state difference
    # (J_Q's b-b entry), so it is divided by lambda2 to read in state units.
    p = PlanarParams(n=n, alpha=alpha, nu=nu)
    path = shoot_heteroclinic(p)
    # the junction is the reach, where the first dropped term is _SERIES_TOL
    assert path.saddle_truncation == pytest.approx(orbit._SERIES_TOL, rel=1e-12, abs=0)
    mu, a_coef, b_coef, zeta_r = orbit._stable_manifold(p, orbit._slow_manifold(p).reach)
    assert zeta_r == path.saddle_junction and len(a_coef) == path.saddle_terms + 2
    mu = Fraction(mu)
    n, alpha, nu = (Fraction(v) for v in (p.n, p.alpha, p.nu))
    g, k = alpha / (nu * n), (n + 1) * nu / alpha
    c = 1 + nu * (n + 1) / alpha
    z = Fraction(path.saddle_junction)
    # drop c_(M+1), the first term the shooter leaves out
    a, b = (sum(Fraction(cm) * z ** m for m, cm in enumerate(coef[:0:-1]))
            for coef in (a_coef, b_coef))
    za, zb = (sum(m * Fraction(cm) * z ** m for m, cm in enumerate(coef[:0:-1]))
              for coef in (a_coef, b_coef))
    res_a = mu * za - (a - a ** 3 / b)
    res_b = (mu * zb - g * (c * b - 1 - k * a * a)) / Fraction(p.lambda2)
    # the first dropped term's own residual, (M+1) mu_s c_(M+1) zeta_r^(M+1) and so
    # up to 40 |mu_s| _SERIES_TOL, bounds the rest
    bound = 2 * (path.saddle_terms + 1) * abs(float(mu)) * path.saddle_truncation
    assert max(abs(res_a), abs(res_b)) <= bound, (float(res_a), float(res_b), bound)
    # the shoot starts on W at the junction, to the rounding of its evaluation: a few
    # ulps for up to 41 terms at zeta_r ~ 0.6
    _, a_j, b_j = _junction(path)
    assert abs(a_j - float(a)) <= 4 * np.spacing(a_j) and abs(b_j - float(b)) <= 4 * np.spacing(b_j)


@pytest.mark.parametrize("n, alpha, nu", SWEEP)
def test_saddle_head_spacing_and_saddle_end(n, alpha, nu):
    p = PlanarParams(n=n, alpha=alpha, nu=nu)
    path = shoot_heteroclinic(p)
    s_j = _junction(path)[0]
    head = path.eta[path.eta >= -s_j]
    # from the junction to eta = 0, as densely as the body
    assert head[-1] == 0.0 and head.size == math.ceil(s_j / orbit._MAX_STEP) + 1
    assert np.all(np.diff(head) <= orbit._MAX_STEP * (1.0 + 1e-12))
    # the saddle end is the sample at distance eps from Q, to O(eps^2)
    distance = math.hypot(path.a[-1] - 1.0, path.b[-1] - 1.0)
    assert abs(distance - path.eps) <= 10.0 * path.eps ** 2
    # the head is on the series: b - 1 is (2 + mu_s)(a - 1) to first order
    mu = equilibria(p)[1].eigenvalues[0]
    tip = path.eta >= -0.5
    slope = (path.b[tip] - 1.0) / (path.a[tip] - 1.0)
    assert np.allclose(slope, 2.0 + mu, rtol=0.0, atol=10.0 * (1.0 - path.a[tip][0]))


def test_a_head_longer_than_s_max_is_max_steps():
    # c_nu = 1101 makes mu_s = -2.2e-3: from eps to the series' reach takes s = 5949
    p = PlanarParams(n=0.1, alpha=0.01, nu=10.0)
    with pytest.raises(MaxStepsError, match=r"did not leave the saddle within s = 2000 .*"
                       r"a larger eps, up to 1e-3, shortens the head"):
        shoot_heteroclinic(p)


@pytest.mark.parametrize("b", [0.0, -1e-3])
def test_shooter_rhs_guards_nonpositive_b(monkeypatch, b):
    def probe(fun, t_span, y0, **kwargs):
        fun(0.0, 0.5, b)

    monkeypatch.setattr(orbit, "solve_ivp", probe)
    # the inputs are valid: a trial step that leaves b > 0 is a numerical failure
    with pytest.raises(RegionExitError, match=r"at eta = -0 \(b = .* <= 0\)"):
        shoot_heteroclinic(REF)


def test_stiff_orbit_needs_no_body():
    # lambda2 = 2e5: the two series overlap, so no body step runs where a
    # first step from the junction had h lambda2 ~ 2e3 and reached b < 0
    for eps in (1e-6, 1e-3):
        path = shoot_heteroclinic(PlanarParams(n=0.01, alpha=20.0, nu=0.01), eps=eps)
        assert path.body_steps == 0 and path.a_junction == path.a_saddle
        assert path.junction_gap <= 1e-11


@pytest.mark.parametrize("n, alpha, nu, a_err, b_err", [
    (0.01, 20.0, 0.01, 1e-12, 1e-14),          # lambda2 = 2e5: the series overlap
    (0.01982, 0.02816, 2.438, 1e-10, 1e-10),   # mu_s = -0.023: a head of s = 570
    (0.109, 0.01717, 4.739, 1e-9, 1e-9),       # lambda2 = 10.2, mu_s = -8.1e-3: to the node
])
def test_inputs_refused_at_the_junction_of_1e_2_match_radau(n, alpha, nu, a_err, b_err):
    # Each exited 3 when the series met the body 1e-2 from Q.  Against SciPy's Radau
    # (rtol 1e-13) from the head's sample nearest zeta = 1e-2 down to a = 1e-2, the
    # first is good to the round-off of its series, the others to Radau's own
    # error over their long heads (5e-11 and 3e-10)
    p = PlanarParams(n=n, alpha=alpha, nu=nu)
    path = shoot_heteroclinic(p)
    mu = equilibria(p)[1].eigenvalues[0]
    i = np.argmin(np.abs(path.eps * np.exp(mu * path.eta) - 1e-2))

    def backward(s, y):
        da, db = vector_field(p, y)
        return (-da, -db)

    def reach(s, y):
        return y[0] - 1e-2

    reach.terminal = True
    radau = solve_ivp(backward, (-path.eta[i], -path.eta[i] + 1000.0), (path.a[i], path.b[i]),
                      method="Radau", rtol=1e-13, atol=1e-20, dense_output=True, events=reach,
                      jac=lambda s, y: -jacobian(p, y))
    keep = (path.a >= 1e-2) & (path.eta <= path.eta[i])
    ours = _worst_error(radau, -path.eta[keep], np.array([path.a[keep], path.b[keep]]))
    assert ours[0] <= a_err and ours[1] <= b_err, ours
    assert (path.body_steps == 0) == (p.lambda2 > 1e5)


def test_a_shoot_is_one_call(monkeypatch):
    # a shoot that fails raises; it does not call itself again with a smaller eps
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return shoot(*args, **kwargs)

    shoot = orbit.shoot_heteroclinic
    monkeypatch.setattr(orbit, "shoot_heteroclinic", counted)
    for key in SWEEP:
        orbit.shoot_heteroclinic(PlanarParams(*key))
    assert len(calls) == len(SWEEP) == 12
