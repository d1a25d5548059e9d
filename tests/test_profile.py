import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shearlab import (
    ParameterError,
    RangeError,
    PlanarParams,
    shoot_heteroclinic,
    reparametrize,
    reconstruct,
    equilibrium_closed_form,
    scale_invariant_solution,
    ode_residual,
    endpoint_report,
    rescale_triple,
    GridTriple,
)
from shearlab.profile import Profile, _d4, _triple_from_ab

REF = PlanarParams(n=0.1, alpha=0.5, nu=0.1)


@pytest.fixture(scope="module")
def ref_profile():
    return reconstruct(reparametrize(shoot_heteroclinic(REF), 1.88))


def test_equilibrium_closed_form_values():
    ev = equilibrium_closed_form(1.5, 0.1, 0.5)
    U, Sigma, Theta = ev(0.0)
    assert Sigma == pytest.approx(1.5)
    assert U == pytest.approx(1.0 / 1.5)
    assert Theta == pytest.approx(-(1.1 / 0.5) * math.log(1.5), rel=1e-14, abs=0)
    # Pythagorean pick: xi = sigma0 sqrt(3) doubles Sigma
    _, Sigma2, _ = ev(1.5 * math.sqrt(3.0))
    assert Sigma2 == pytest.approx(3.0, rel=1e-14, abs=0)
    # U Sigma = 1 everywhere
    U, Sigma, _ = ev(np.geomspace(1e-3, 1e3, 50))
    assert np.allclose(U * Sigma, 1.0, rtol=1e-14)


def test_equilibrium_closed_form_residual():
    # certified bound: measured sup plus the differentiation-error estimate
    ev = equilibrium_closed_form(1.5, 0.1, 0.5)
    rep = ode_residual(ev, 0.0, 0.1, 0.5, xi=np.geomspace(0.01, 100.0, 5001))
    assert max(rep.sup) < 1e-10
    assert max(rep.sup) + rep.fd_error_estimate < 1e-10


@pytest.mark.parametrize("nu", [0.05, 0.1, 1.0])
def test_scale_invariant_solution_residual(nu):
    ev = scale_invariant_solution(0.1, 0.5)
    rep = ode_residual(ev, nu, 0.1, 0.5, xi=np.geomspace(0.1, 100.0, 5001))
    assert max(rep.sup) + rep.fd_error_estimate < 1e-10


def test_reconstruct_requires_reparametrized_path():
    with pytest.raises(ParameterError):
        reconstruct(shoot_heteroclinic(REF))


def test_profile_refuses_a_path_that_is_not_reparametrized():
    with pytest.raises(ParameterError, match="reparametrized"):
        Profile(shoot_heteroclinic(REF))


def test_profile_is_its_path(ref_profile):
    # every other value is read from the orbit, so none can disagree with it
    assert [f.name for f in fields(Profile)] == ["path"]
    with pytest.raises(TypeError):
        replace(ref_profile, U0=2.0 * ref_profile.U0)


def test_profile_endpoint_data(ref_profile):
    prof = ref_profile
    assert prof.U0 == pytest.approx(1.22 / 1.88, rel=1e-12, abs=0)
    assert prof.U0 * prof.sigma0 == pytest.approx(REF.c_nu, rel=1e-12, abs=0)
    assert prof.Theta0 == pytest.approx(
        (1.1 / 0.5) * math.log(prof.U0) - math.log(1.22) / 0.5, rel=1e-12, abs=0)
    # reconstructed initial value: Sigma at the smallest resolved xi
    assert prof.Sigma[0] == pytest.approx(1.88, abs=1e-3)
    assert prof.U[0] * prof.Sigma[0] == pytest.approx(REF.c_nu, abs=1e-3)


def test_profile_limits(ref_profile):
    prof = ref_profile
    # xi -> 0: (Sigma, U, Theta) -> (sigma0, U0, Theta0)
    U, Sigma, Theta = prof(1e-6)
    assert Sigma == pytest.approx(prof.sigma0, abs=1e-6)
    assert U == pytest.approx(prof.U0, rel=1e-6)
    assert Theta == pytest.approx(prof.Theta0, abs=1e-6)
    # xi -> infinity: Sigma/xi -> 1, xi U -> 1, Theta + ((n+1)/alpha) log xi -> 0
    xi = 1e3
    U, Sigma, Theta = prof(xi)
    assert Sigma / xi == pytest.approx(1.0, abs=1e-3)
    assert xi * U == pytest.approx(1.0, abs=1e-3)
    assert Theta + (1.1 / 0.5) * math.log(xi) == pytest.approx(0.0, abs=1e-3)


def test_profile_evaluates_at_resolved_range_boundaries(ref_profile):
    # log(exp(eta)) may overshoot the sampled eta range by one ulp; the
    # evaluator must not reject its own boundary samples
    prof = ref_profile
    for xi in (prof.xi_min, prof.xi_max,
               np.nextafter(prof.xi_max, 0.0), np.nextafter(prof.xi_min, np.inf)):
        U, Sigma, Theta = prof(xi)
        assert np.isfinite([U, Sigma, Theta]).all()


def test_profile_is_even(ref_profile):
    xs = np.array([1e-4, 0.3, 2.0, 50.0])
    left = ref_profile(-xs)
    right = ref_profile(xs)
    for l, r in zip(left, right):
        assert np.array_equal(l, r)


def _bits(values):
    return [np.asarray(v, dtype=float).tobytes() for v in values]


@settings(max_examples=100, deadline=None)
@given(points=st.lists(st.tuples(st.sampled_from(("inner", "resolved", "outer")),
                                 st.floats(0.0, 1.0)), min_size=1, max_size=20))
def test_profile_is_even_bit_for_bit(ref_profile, points):
    lo, hi = ref_profile.xi_min, ref_profile.xi_max
    to_xi = {"inner": lambda u: lo * u,                  # Taylor data, 0 included
             "resolved": lambda u: lo * (hi / lo) ** u,  # the orbit
             "outer": lambda u: hi * (1.0 + 1e3 * u)}    # the limiting forms
    xi = np.array([to_xi[region](u) for region, u in points])
    assert _bits(ref_profile(-xi)) == _bits(ref_profile(xi))
    for x in xi:
        assert _bits(ref_profile(-x)) == _bits(ref_profile(x))


def test_past_xi_max_the_orbit_is_read_at_its_last_sample(ref_profile):
    prof, path = ref_profile, ref_profile.path
    xi = prof.xi_max * (1.0 + np.geomspace(1e-12, 1e6, 200))
    la, lb = path.log_states_at(np.full(xi.shape, path.eta[-1]))
    assert _bits(prof(xi)) == _bits(_triple_from_ab(prof.p, np.log(xi), la, lb))


@pytest.mark.parametrize("shape", [(1,), (4095,), (4096,), (4097,), (3 * 4096 + 7,), (3, 4097)],
                         ids=str)
def test_blocked_evaluation_matches_pointwise_bit_for_bit(ref_profile, shape):
    lo, hi = ref_profile.xi_min, ref_profile.xi_max
    rng = np.random.default_rng(sum(shape))
    u = rng.uniform(size=shape)
    # inner, resolved and outer points, mixed, half of them negative
    xi = np.choose(rng.integers(3, size=shape),
                   [lo * u, lo * (hi / lo) ** u, hi * (1.0 + 1e3 * u)])
    xi *= rng.choice([-1.0, 1.0], size=shape)
    blocked = ref_profile(xi)
    pointwise = [ref_profile(x) for x in xi.ravel()]
    assert all(type(v) is float for v in pointwise[0])
    for field, values in zip(blocked, zip(*pointwise)):
        assert field.shape == shape
        assert field.ravel().tobytes() == np.array(values).tobytes()


def test_profile_ordering_and_monotonicity(ref_profile):
    prof = ref_profile
    xi = np.geomspace(prof.xi_min, prof.xi_max, 5000)
    U, Sigma, Theta = prof(xi)
    q = Sigma * U
    assert np.all(q > 1.0 - 1e-9)
    assert np.all(q <= REF.c_nu + 1e-9)
    assert np.all(np.diff(q) <= 1e-12)          # decreasing in xi
    # strict monotonicity where the increments clear round-off (on the deep
    # tail Sigma is sigma0 plus O(xi^2): increments fall below eps there)
    xs = np.geomspace(1e-4, prof.xi_max, 5000)
    U, Sigma, _ = prof(xs)
    assert np.all(np.diff(Sigma) > 0)
    assert np.all(np.diff(U) < 0)


def test_profile_constitutive_identity(ref_profile):
    prof = ref_profile
    xi = np.geomspace(prof.xi_min, prof.xi_max, 4000)
    U, Sigma, Theta = prof(xi)
    rhs = np.exp(-REF.alpha * Theta) * U ** REF.n
    assert np.allclose(Sigma, rhs, rtol=1e-12)
    # inner Taylor region: identity holds to O(xi_min^2)
    U, Sigma, Theta = prof(prof.xi_min / 2.0)
    assert Sigma == pytest.approx(math.exp(-REF.alpha * Theta) * U ** REF.n, rel=1e-8)


def test_reconstructed_residual(ref_profile):
    rep = ode_residual(ref_profile, REF.nu, REF.n, REF.alpha,
                       xi=np.geomspace(1e-2, 1e2, 20001))
    assert max(rep.sup) < 1e-6
    assert not rep.grid_too_coarse


def test_residual_error_estimate_tracks_roundoff(ref_profile):
    # at xi ~ 1e-8 the 1/xi amplification of FD round-off dominates: the
    # error estimate must report that uncertainty, and must stay far below
    # the residual on the trusted range
    prof = ref_profile
    deep = ode_residual(prof, REF.nu, REF.n, REF.alpha,
                        xi=np.geomspace(prof.xi_min * 1.05, 1.0, 20001))
    assert deep.fd_error_estimate > 1e-5
    good = ode_residual(prof, REF.nu, REF.n, REF.alpha,
                        xi=np.geomspace(1e-2, 1e2, 20001))
    assert good.fd_error_estimate < 0.2 * max(good.sup)
    assert not good.grid_too_coarse


def test_residual_grid_validation(ref_profile):
    bad = np.concatenate([np.linspace(0.1, 1, 50), np.geomspace(1.1, 10, 50)])
    with pytest.raises(ParameterError):
        ode_residual(ref_profile, REF.nu, REF.n, REF.alpha, xi=bad)
    with pytest.raises(ParameterError):
        ode_residual(ref_profile, REF.nu, REF.n, REF.alpha, xi=np.geomspace(0.1, 1, 5))


def test_uniform_xi_grid_supported():
    ev = equilibrium_closed_form(1.0, 0.1, 0.5)
    rep = ode_residual(ev, 0.0, 0.1, 0.5, xi=np.linspace(0.5, 5.0, 30001))
    assert max(rep.sup) < 1e-10


def test_endpoint_report(ref_profile):
    rep = endpoint_report(ref_profile)
    assert abs(rep.dU0) < 1e-4
    assert abs(rep.dSigma0) < 1e-4
    assert abs(rep.dTheta0) < 1e-4
    assert rep.taylor_coeff == pytest.approx(rep.taylor_coeff_target, rel=0.02)
    assert rep.sigma_origin_gap < 1e-3
    assert rep.product_origin_gap < 1e-3
    assert rep.tail_sigma_dev < 1e-3
    assert rep.tail_u_dev < 1e-3
    assert rep.tail_theta_dev < 1e-3


def test_endpoint_report_requires_resolution(ref_profile):
    path = ref_profile.path
    keep = ref_profile.xi >= 0.1 * ref_profile.sigma0
    stub = Profile(replace(path, eta=path.eta[keep], a=path.a[keep], b=path.b[keep],
                           d=path.d[keep]))
    with pytest.raises(RangeError):
        endpoint_report(stub)


def test_scaling_coherence(ref_profile):
    # the scaling family maps the profile to a solution of the same system
    # with amplitude sigma0/b: residual stays within 10x the original
    prof = ref_profile
    base = ode_residual(prof, REF.nu, REF.n, REF.alpha,
                        xi=np.geomspace(0.05, 20.0, 20001))
    xi = np.geomspace(0.05, 20.0, 20001)
    tr = GridTriple(xi=xi, U=prof(xi)[0], Sigma=prof(xi)[1], Theta=prof(xi)[2])
    b = 1.6
    scaled = rescale_triple(tr, b, REF.n, REF.alpha, evaluator=prof)

    def scaled_eval(x):
        U, Sigma, Theta = prof(b * np.asarray(x))
        return (b * U, Sigma / b,
                (REF.n + 1.0) / REF.alpha * np.log(b) + Theta)

    # sampled form agrees with the exact pushforward
    ref = scaled_eval(scaled.xi)
    assert np.allclose(scaled.U, ref[0], rtol=1e-12)
    rep = ode_residual(scaled_eval, REF.nu, REF.n, REF.alpha,
                       xi=np.geomspace(0.05 / b, 20.0 / b, 20001))
    assert max(rep.sup) <= 10.0 * max(max(base.sup), 1e-12)
    # and the scaled amplitude is sigma0 / b
    assert scaled_eval(1e-5)[1] == pytest.approx(prof.sigma0 / b, rel=1e-4)


@settings(max_examples=80, deadline=None)
@given(coef=st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=5),
       x0=st.floats(-10.0, 10.0), h=st.floats(1e-2, 1.0), size=st.integers(5, 60),
       axis=st.integers(0, 1))
def test_d4_exact_on_quartics(coef, x0, h, size, axis):
    x = x0 + h * np.arange(size)
    poly = np.polynomial.Polynomial(coef)
    values = np.outer([1.0, 2.0], poly(x))
    exact = np.outer([1.0, 2.0], poly.deriv()(x))
    d = _d4(values, h, 1) if axis == 1 else _d4(values.T, h, 0).T
    # formed on the interior only: two points shorter at each end of the axis
    assert d.shape == (2, size - 4)
    # the stencil is exact through degree 4; what is left is round-off of values / h
    # (and underflow, for tiny coefficients)
    tol = 64 * np.finfo(float).eps * (np.max(np.abs(values)) / h + np.max(np.abs(exact))) \
        + np.finfo(float).tiny
    assert np.max(np.abs(d - exact[:, 2:-2])) <= tol


@settings(max_examples=30, deadline=None)
@given(a=st.floats(0.2, 5.0))
def test_rescale_maps_profile_to_the_rescaled_amplitude(ref_profile, a):
    """rescale_triple(profile at sigma0, a) is the profile at sigma0 / a."""
    prof = ref_profile
    xi = np.geomspace(0.05, 20.0, 401)
    U, Sigma, Theta = prof(xi)
    scaled = rescale_triple(GridTriple(xi=xi, U=U, Sigma=Sigma, Theta=Theta), a,
                            REF.n, REF.alpha, evaluator=prof)
    target = reconstruct(reparametrize(prof.path, prof.sigma0 / a))
    tU, tSigma, tTheta = target(scaled.xi)
    assert np.allclose(scaled.U, tU, rtol=1e-12, atol=0.0)
    assert np.allclose(scaled.Sigma, tSigma, rtol=1e-12, atol=0.0)
    assert np.allclose(scaled.Theta, tTheta, rtol=0.0, atol=1e-12)
