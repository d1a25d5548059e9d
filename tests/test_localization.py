import math
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest

from shearlab import (
    MaterialParams,
    ParameterError,
    RangeError,
    PlanarParams,
    LocalizedSolution,
    shoot_heteroclinic,
    reparametrize,
    reconstruct,
    uniform_shear,
    pde_residual,
    residual_convergence,
    band_diagnostics,
)
from shearlab.localization import OUTER_WINDOW_FACTOR
from shearlab.material import half_line
from shearlab.profile import Profile
from test_residual_oracle import reference_level

N, ALPHA, THETA0, LAM, SIGMA0 = 0.1, 0.5, 10.0, 0.1, 1.88


@pytest.fixture(scope="module")
def showcase_solution():
    p = PlanarParams(n=N, alpha=ALPHA, nu=LAM)
    prof = reconstruct(reparametrize(shoot_heteroclinic(p), SIGMA0))
    return LocalizedSolution(profile=prof, theta0=THETA0)


class _ConstantProfile:
    """Uniform-shear stand-in: U = 1, Sigma = 1, Theta = 0."""

    def __init__(self, p):
        self.p, self.nu, self.sigma0, self.xi_max = p, p.nu, 1.0, np.inf

    def __call__(self, xi):
        xi = np.asarray(xi, dtype=float)
        return np.ones_like(xi), np.ones_like(xi), np.zeros_like(xi)


def test_constructor_guards(showcase_solution):
    # n, alpha, lam and sigma0 are the profile's and kappa is 0, so the solution takes
    # none of them: once it took all seven values again and passed a mismatched n or alpha
    assert [f.name for f in fields(LocalizedSolution)] == ["profile", "theta0"]
    with pytest.raises(TypeError, match="params"):
        LocalizedSolution(profile=showcase_solution.profile, theta0=THETA0,
                          params=MaterialParams(n=0.05, alpha=ALPHA, kappa=0.0, theta0=THETA0))


@pytest.mark.parametrize("n, alpha, lam, sigma0", [
    (N, ALPHA, LAM, SIGMA0), (0.05, ALPHA, LAM, SIGMA0), (N, 0.4, 0.2, 1.3)],
    ids=["showcase", "n-0.05", "alpha-0.4"])
def test_solution_takes_its_values_from_the_profile(n, alpha, lam, sigma0):
    # the showcase profile with n = 0.05 or alpha = 0.4 once gave a constitutive
    # residual of 6.9e-4 or 8.3e-3 on this grid; a profile shot there gives round-off
    prof = reconstruct(reparametrize(shoot_heteroclinic(PlanarParams(n, alpha, lam)), sigma0))
    sol = LocalizedSolution(profile=prof, theta0=THETA0)
    assert sol.params == MaterialParams(n=n, alpha=alpha, kappa=0.0, theta0=THETA0)
    for t in (0.0, 10.0, 200.0):
        phi = (alpha * t / math.exp(alpha * THETA0) + 1.0) ** (lam / alpha)
        assert sol.phi(t) == pytest.approx(phi, rel=1e-14, abs=0)
    x_bad = 2.0 * OUTER_WINDOW_FACTOR * prof.xi_max / math.sqrt(lam)
    with pytest.raises(RangeError) as exc:
        sol.evaluate(x_bad, 0.0)
    assert str(exc.value) == (
        f"xmax = {x_bad:g} reaches xi = {math.sqrt(lam) * x_bad:.3e} by t = 0, beyond the "
        f"outer validity window ({OUTER_WINDOW_FACTOR * prof.xi_max:.3e}) of the profile at "
        f"sigma0 = {sigma0:.3e}; raise sigma0 or lower xmax")
    rep = pde_residual(sol, np.linspace(-5.0, 5.0, 257), np.linspace(0.0, 10.0, 129))
    assert rep.sup[2] < 1e-15


def test_initial_data_reduction(showcase_solution):
    # at t = 0 the solution reduces to (U(sqrt(lam) x), sigma_s(0) Sigma(...),
    # theta_s(0) + Theta(...))
    sol = showcase_solution
    xs = np.linspace(-3.0, 3.0, 41)
    u, sigma, theta = sol.evaluate(xs, 0.0)
    U, Sigma, Theta = sol.profile(math.sqrt(LAM) * xs)
    base = uniform_shear(sol.params, 0.0)
    assert np.allclose(u, U, rtol=1e-14)
    assert np.allclose(sigma, base.sigma_s * Sigma, rtol=1e-14)
    assert np.allclose(theta, base.theta_s + Theta, rtol=1e-14)


def test_peak_growth_and_evenness(showcase_solution):
    sol = showcase_solution
    ts = np.linspace(0.0, 200.0, 9)
    u0 = np.array([sol.evaluate(0.0, t)[0] for t in ts])
    # u(0,t) = phi(t) U(0), strictly increasing in t
    U0 = sol.profile(0.0)[0]
    assert np.allclose(u0, sol.phi(ts) * U0, rtol=1e-13)
    assert np.all(np.diff(u0) > 0)
    # even in x
    for t in (0.0, 50.0):
        left = sol.evaluate(-2.3, t)
        right = sol.evaluate(2.3, t)
        assert left == right


@pytest.mark.parametrize("xmax, n", [(1.234567, 401), (3.7, 257), (2.5, 99), (5.0, 400),
                                     (5.0, 4), (5.0, 2), (5.0, 1)])
def test_fields_on_the_half_line_are_the_grids_bit_for_bit(showcase_solution, xmax, n):
    # the grid on [-xmax, xmax] is the mirror image of its half x >= 0, so the solution,
    # even in x, is evaluated once per distinct |x|; np.linspace is not symmetric in floats
    sol = showcase_solution
    half, h = half_line(xmax, n)
    assert half.size == (n + 1) // 2 and half[-1] == xmax and np.all(half >= 0.0)
    x = np.concatenate((0.0 - half[::-1], half[n % 2:]))
    assert x.size == n and x[0] == -xmax and (n == 1 or np.array_equal(x, -x[::-1]))
    if n > 2:
        assert half[0] == (0.0 if n % 2 else h / 2)
        assert np.allclose(x, np.linspace(-xmax, xmax, n), rtol=0, atol=4 * np.spacing(xmax))
    t = np.linspace(0.0, 200.0, 9)
    sizes = []

    class Sizing(_CountingProfile):
        def __call__(self, xi):
            sizes.append(np.size(xi))
            return super().__call__(xi)

    fields = replace(sol, profile=Sizing(sol.profile)).evaluate(half[:, None], t[None, :])
    assert sizes == [half.size * t.size]
    row = np.abs(2 * np.arange(n) - (n - 1)) // 2       # the row of each x's |x| in half
    assert np.array_equal(half[row], np.abs(x))
    for ours, full in zip(fields, sol.evaluate(x[:, None], t[None, :])):
        assert np.array_equal(ours[row].view(np.uint64), full.view(np.uint64))


def test_theta_arrangements_agree(showcase_solution):
    # theta = (1 + lam(n+1)/alpha) theta_s - lam(n+1)/alpha theta0 + Theta
    # equals theta_s + lam(n+1)/alpha (theta_s - theta0) + Theta
    sol = showcase_solution
    xs = np.linspace(-4.0, 4.0, 17)
    for t in (0.0, 10.0, 200.0):
        _, _, theta = sol.evaluate(xs, t)
        base = uniform_shear(sol.params, t)
        Theta = sol.profile(math.sqrt(LAM) * xs * sol.phi(t))[2]
        na = LAM * (N + 1.0) / ALPHA
        alt = base.theta_s + na * (base.theta_s - THETA0) + Theta
        assert np.allclose(theta, alt, rtol=1e-14)


def test_theta_excess_identity_and_bound(showcase_solution):
    sol = showcase_solution
    xs = np.linspace(-5.0, 5.0, 101)
    na = LAM * (N + 1.0) / ALPHA
    Theta00 = sol.profile(0.0)[2]
    for t in (0.0, 20.0, 200.0):
        _, _, theta = sol.evaluate(xs, t)
        base = uniform_shear(sol.params, t)
        excess = theta - base.theta_s
        peak = sol.evaluate(0.0, t)[2] - base.theta_s
        assert np.all(excess <= peak + 1e-12)
        assert peak == pytest.approx(na * (base.theta_s - THETA0) + Theta00, rel=1e-12, abs=0)


def test_monotone_decay_away_from_band(showcase_solution):
    sol = showcase_solution
    xs = np.linspace(0.0, 5.0, 200)
    for t in (0.0, 100.0):
        u = sol.evaluate(xs, t)[0]
        assert np.all(np.diff(u) < 0)


def test_constitutive_residual_is_roundoff(showcase_solution):
    sol = showcase_solution
    x = np.linspace(-5.0, 5.0, 65)
    t = np.linspace(0.0, 10.0, 17)
    rep = pde_residual(sol, x, t)
    assert rep.sup[2] < 1e-13


def test_uniform_shear_degenerate_solution():
    # constants (U, Sigma, Theta) = (1, 1, 0) with lam -> 0 reproduce the
    # uniform shearing solution, which solves the system exactly; theta0 = 10
    # keeps the base state slow so the t-differencing is exact to round-off
    sol = LocalizedSolution(profile=_ConstantProfile(PlanarParams(n=0.1, alpha=0.5, nu=1e-14)),
                            theta0=10.0)
    x = np.linspace(-2.0, 2.0, 33)
    t = np.linspace(0.0, 5.0, 33)
    rep = pde_residual(sol, x, t)
    assert max(rep.sup) < 1e-12


def test_residual_fourth_order_convergence(showcase_solution):
    reports, orders, order = residual_convergence(showcase_solution)
    assert order == pytest.approx(4.0, abs=0.3)
    finest = [r for r in reports if not r.at_interpolation_floor][-1]
    assert max(finest.sup[0], finest.sup[1]) < 1e-6


DEFAULT_STUDY = dict(xmax=5.0, t_span=(0.0, 10.0), nx0=33, nt0=17, levels=4)


@pytest.mark.parametrize("study", [
    {},
    # steps that are not binary fractions; nx0 = 17 is the least for which the
    # coarsest level's stride-2 sigma_xx estimate has an interior point
    dict(xmax=3.7, t_span=(0.3, 7.1), nx0=17, nt0=9, levels=3),
], ids=["default", "odd-spans"])
def test_residual_levels_equal_independent_grids_bit_for_bit(showcase_solution, study):
    # each level is a slice of the finest grid's half x >= 0, given its ghost rows from the
    # mirror; its report is the reference's on the level's own symmetric grid, evaluated
    # there in full and reduced over x >= 0
    reports, _, _ = residual_convergence(showcase_solution, **study)
    s = {**DEFAULT_STUDY, **study}
    assert len(reports) == s["levels"]
    for lev, report in enumerate(reports):
        t = np.linspace(*s["t_span"], (s["nt0"] - 1) * 2 ** lev + 1)
        assert report == reference_level(showcase_solution, s["xmax"], t,
                                         (s["nx0"] - 1) * 2 ** lev + 1)


def test_residual_study_checks_its_arguments_before_evaluating(showcase_solution):
    counting = _CountingProfile(showcase_solution.profile)
    sol = replace(showcase_solution, profile=counting)
    with pytest.raises(ParameterError, match="levels must be >= 1"):
        residual_convergence(sol, levels=0)
    # the stride-2 sigma_xx error estimate needs 17 x points
    with pytest.raises(ParameterError, match="x grid must be uniform with >= 17 points"):
        residual_convergence(sol, nx0=16)
    with pytest.raises(ParameterError, match="x grid must be uniform with >= 17 points"):
        pde_residual(sol, np.linspace(-1.0, 1.0, 16), np.linspace(0.0, 1.0, 9))
    with pytest.raises(ParameterError, match="t grid must be uniform with >= 9 points"):
        residual_convergence(sol, nt0=0)
    assert counting.calls == 0


@pytest.mark.parametrize("span, grid, what", [
    ({"t_span": (0.0, 1e-300)}, "hx = 3.125e-01, ht = 6.250e-302", "momentum residual's l2"),
    ({"xmax": 1e-300}, "hx = 6.250e-302, ht = 6.250e-01", "momentum residual's sup"),
])
def test_residual_study_refuses_a_norm_that_is_not_finite(showcase_solution, span, grid, what):
    # a step near the bottom of the float range overflows the stencils' division;
    # the study once reported inf, with RuntimeWarnings, and fitted no order
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RangeError) as exc:
            residual_convergence(showcase_solution, levels=2, **span)
    assert str(exc.value) == f"residual study on the 33x17 grid ({grid}): the {what} is inf, " \
        "not a finite float"


def test_out_of_window_guard(showcase_solution):
    sol = showcase_solution
    xi_max = sol.profile.xi_max
    x_bad = 2.0 * OUTER_WINDOW_FACTOR * xi_max / math.sqrt(LAM)
    with pytest.raises(RangeError):
        sol.evaluate(x_bad, 0.0)
    with pytest.raises(ParameterError):
        sol.evaluate(0.0, -1.0)


def test_outer_window_error_names_the_point_of_largest_xi(showcase_solution):
    counting = _CountingProfile(showcase_solution.profile)
    sol = replace(showcase_solution, profile=counting)
    xmax = 3.0 * OUTER_WINDOW_FACTOR * counting.xi_max / math.sqrt(LAM)
    x, t = np.linspace(-xmax, xmax, 7), np.linspace(0.0, 200.0, 5)
    xi = math.sqrt(LAM) * xmax * sol.phi(200.0)
    with pytest.raises(RangeError) as exc:
        sol.evaluate(x[None, :], t[:, None])
    assert str(exc.value) == (
        f"xmax = {xmax:g} reaches xi = {xi:.3e} by t = 200, beyond the outer validity "
        f"window ({OUTER_WINDOW_FACTOR * counting.xi_max:.3e}) of the profile at "
        f"sigma0 = 1.880e+00; raise sigma0 or lower xmax")
    # a point inside the window passes, and the check runs before the profile is called
    assert counting.calls == 0
    sol.evaluate(x[3:4], t)
    assert counting.calls == 1


def test_band_diagnostics_self_similarity(showcase_solution):
    sol = showcase_solution
    ts = np.linspace(1.0, 200.0, 12)
    diag = band_diagnostics(sol, ts)
    # halfwidth * phi is constant: halfwidth = xi_half / (sqrt(lam) phi)
    prod = diag.halfwidth * sol.phi(ts)
    assert np.allclose(prod, prod[0], rtol=1e-9)
    # peak ratio equals the amplification
    assert np.allclose(diag.peak_u / sol.evaluate(0.0, 0.0)[0], sol.phi(ts),
                       rtol=1e-12)
    assert np.all(np.diff(diag.theta_excess) > 0)


def _bisect_halfwidth(sol, t):
    """Root of u(x, t) = u(0, t)/2 by bisection in x, bracketed from xi = 1."""
    u0 = sol.evaluate(0.0, t)[0]
    hi = 1.0 / (math.sqrt(LAM) * sol.phi(t))
    while sol.evaluate(hi, t)[0] > 0.5 * u0:
        hi *= 2.0
    lo = 0.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if sol.evaluate(mid, t)[0] > 0.5 * u0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_band_halfwidth_matches_space_bisection(showcase_solution):
    sol = showcase_solution
    ts = np.linspace(0.0, 200.0, 9)[1:]
    diag = band_diagnostics(sol, ts)
    expected = [_bisect_halfwidth(sol, t) for t in ts]
    assert np.allclose(diag.halfwidth, expected, rtol=1e-14, atol=0.0)
    u_half = np.array([sol.evaluate(w, t)[0] for w, t in zip(diag.halfwidth, ts)])
    assert np.allclose(u_half / diag.peak_u, 0.5, rtol=1e-12, atol=0.0)


def _full_bisection_xi_half(profile):
    """The root of U(xi) = U(0)/2 by 80 bisection steps on the evaluated U: the oracle
    of ``Profile.xi_at_U``."""
    half = 0.5 * profile(0.0)[0]
    hi = 1.0
    while profile(hi)[0] > half:
        hi *= 2.0
    lo = 0.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if profile(mid)[0] > half:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class _CountingProfile:
    def __init__(self, profile):
        self.profile, self.calls = profile, 0
        self.p, self.nu, self.sigma0, self.xi_max = (profile.p, profile.nu, profile.sigma0,
                                                     profile.xi_max)

    def __call__(self, xi):
        self.calls += 1
        return self.profile(xi)


SWEEP = [(n, alpha, nu) for n in (0.05, 0.1) for alpha in (0.5, 1.0)
         for nu in (0.05, 0.1, 0.5)]


@pytest.mark.parametrize("n, alpha, lam", SWEEP)
def test_band_halfwidth_agrees_with_bisection(n, alpha, lam):
    # the benchmark's sweep points, at the sigma0 it draws from
    orbit = shoot_heteroclinic(PlanarParams(n, alpha, lam))
    ts = np.linspace(0.0, 200.0, 9)
    for sigma0 in (1.0, 1.7, 2.4):
        prof = reconstruct(reparametrize(orbit, sigma0))
        sol = LocalizedSolution(profile=prof, theta0=THETA0)
        xi_half = prof.xi_at_U(0.5 * prof.U0)
        expected = _full_bisection_xi_half(prof)
        assert abs(xi_half - expected) <= 16 * math.ulp(expected)
        assert np.array_equal(band_diagnostics(sol, ts).halfwidth,
                              xi_half / (math.sqrt(lam) * sol.phi(ts)))


@pytest.mark.parametrize("n, alpha, lam, sigma0", [
    (0.5133, 0.13, 1.783, 0.01234), (0.68, 0.2085, 0.7858, 0.0359),
    (1.226, 0.3959, 0.1055, 0.04611), (N, ALPHA, LAM, 1e-3), (N, ALPHA, LAM, 1e3)],
    ids=["survey-1", "survey-2", "survey-3", "sigma0-1e-3", "sigma0-1e3"])
def test_xi_half_agrees_with_bisection_off_the_sweep(n, alpha, lam, sigma0):
    # the three unresolved residual studies of the survey, and sigma0 far from 1
    prof = reconstruct(reparametrize(shoot_heteroclinic(PlanarParams(n, alpha, lam)), sigma0))
    expected = _full_bisection_xi_half(prof)
    assert abs(prof.xi_at_U(0.5 * prof.U0) - expected) <= 16 * math.ulp(expected)


def test_showcase_halfwidth_is_the_bisections(showcase_solution):
    # the showcase golden's halfwidth column rests on this root
    prof = showcase_solution.profile
    assert prof.xi_at_U(0.5 * prof.U0) == _full_bisection_xi_half(prof)


def test_xi_at_U_solves_U_equals_level(showcase_solution):
    prof = showcase_solution.profile
    u_end = prof(prof.xi_max)[0]
    for level in np.geomspace(1.01 * u_end, 0.99 * prof.U0, 25):
        xi = prof.xi_at_U(level)
        assert prof.xi_min < xi < prof.xi_max
        assert math.isclose(prof(xi)[0], level, rel_tol=1e-14)
        assert prof(math.nextafter(xi, 0.0))[0] >= prof(xi)[0]


def test_xi_at_U_past_xi_max_is_the_outer_forms_root(showcase_solution):
    prof = showcase_solution.profile
    la_end, lb_end = math.log(prof.path.a[-1]), math.log(prof.path.b[-1])
    for level in (0.5 * prof(prof.xi_max)[0], 1e-300):
        xi = prof.xi_at_U(level)
        assert xi == math.exp(la_end - lb_end - math.log(level)) > prof.xi_max
        assert math.isclose(prof(xi)[0], level, rel_tol=1e-13)


def test_xi_at_U_between_U_at_xi_min_and_U0_is_xi_min():
    # a coarse tol ends the orbit at xi_min with U(xi_min) about 1e-4 below U0: the
    # evaluator's U falls through a level between them at xi_min
    orbit = shoot_heteroclinic(PlanarParams(n=N, alpha=ALPHA, nu=LAM), tol=1e-2)
    prof = reconstruct(reparametrize(orbit, SIGMA0))
    level = 0.5 * (prof(prof.xi_min)[0] + prof.U0)
    assert prof.xi_at_U(level) == prof.xi_min
    assert prof(math.nextafter(prof.xi_min, 0.0))[0] > level >= prof(prof.xi_min)[0]


@pytest.mark.parametrize("times_U0", [0.0, -1.0, 1.0, 2.0, math.inf, math.nan],
                         ids=["zero", "negative", "U0", "above-U0", "inf", "nan"])
def test_xi_at_U_refuses_a_level_outside_0_U0(showcase_solution, times_U0):
    prof = showcase_solution.profile
    with pytest.raises(ParameterError, match="U takes the level"):
        prof.xi_at_U(times_U0 * prof.U0)


def test_band_diagnostics_calls_the_profile_once(showcase_solution, monkeypatch):
    # the root needs no profile call: only the peak and temperature at x = 0 do
    sizes, call = [], Profile.__call__
    monkeypatch.setattr(Profile, "__call__", lambda self, xi: sizes.append(np.size(xi))
                        or call(self, xi))
    band_diagnostics(showcase_solution, np.linspace(0.0, 200.0, 9))
    assert sizes == [9]


def test_larger_lambda_localizes_faster():
    sols = {}
    for lam in (0.1, 0.4):
        p = PlanarParams(n=N, alpha=ALPHA, nu=lam)
        prof = reconstruct(reparametrize(shoot_heteroclinic(p), 1.0))
        sols[lam] = LocalizedSolution(profile=prof, theta0=THETA0)
    ts = np.array([50.0, 200.0])
    d1 = band_diagnostics(sols[0.1], ts)
    d4 = band_diagnostics(sols[0.4], ts)
    # faster decay: larger relative halfwidth shrinkage at equal times
    shrink1 = d1.halfwidth[-1] / d1.halfwidth[0]
    shrink4 = d4.halfwidth[-1] / d4.halfwidth[0]
    assert shrink4 < shrink1


def test_self_similar_collapse(showcase_solution):
    sol = showcase_solution
    x = np.linspace(0.0, 5.0, 801)
    curves = {}
    for t in (0.0, 50.0, 200.0):
        xi = math.sqrt(LAM) * x * sol.phi(t)
        curves[t] = (xi, sol.evaluate(x, t)[0] / sol.phi(t))
    xi0, u0 = curves[0.0]
    for t in (50.0, 200.0):
        xi, u = curves[t]
        lo, hi = max(xi0[0], xi[0]), min(xi0[-1], xi[-1])
        xs = np.linspace(lo, hi, 400)
        dev = np.interp(xs, xi0, u0) - np.interp(xs, xi, u)
        assert np.max(np.abs(dev)) < 1e-4
