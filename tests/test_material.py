import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from scipy.integrate import quad, solve_ivp

from shearlab import (
    MaterialParams,
    ParameterError,
    EmptyOverlapError,
    GridTriple,
    uniform_shear,
    tau_of_t,
    t_of_tau,
    constitutive_stress,
    rescale_triple,
)
from shearlab.profile import scale_invariant_solution


def test_params_validation():
    with pytest.raises(ParameterError):
        MaterialParams(alpha=0.0)
    with pytest.raises(ParameterError):
        MaterialParams(alpha=0.5, kappa=-1.0)
    with pytest.raises(ParameterError):
        MaterialParams(alpha=0.5, n=-0.1)
    # n = 0 is the rate-insensitive case and is allowed
    MaterialParams(n=0.0, alpha=1.0)


@pytest.mark.parametrize("field", ["n", "alpha", "kappa", "theta0"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_material_parameter_is_named(field, value):
    # NaN is neither < 0 nor <= 0: uniform_shear returned NaN with a RuntimeWarning
    with pytest.raises(ParameterError, match=f"^{field} must be finite"):
        uniform_shear(MaterialParams(**{field: value}), 1.0)


def test_c0_is_derived():
    mp = MaterialParams(alpha=0.5, theta0=10.0)
    assert mp.c0 == pytest.approx(np.exp(5.0), rel=0, abs=0)
    assert mp.log_c0 == 5.0


def test_uniform_shear_at_zero():
    # c0 cancels at t = 0
    mp = MaterialParams(alpha=0.5, theta0=10.0)
    st = uniform_shear(mp, 0.0)
    assert st.theta_s == pytest.approx(10.0, abs=1e-14)
    assert st.sigma_s == pytest.approx(np.exp(-5.0), rel=1e-14, abs=0)


def test_uniform_shear_identity_on_log_grid():
    # sigma_s (alpha t + c0) = 1 and exp(alpha theta_s) = alpha t + c0
    mp = MaterialParams(alpha=0.7, theta0=3.0)
    for t in np.geomspace(1e-6, 1e6, 25):
        st = uniform_shear(mp, t)
        assert st.sigma_s * (mp.alpha * t + mp.c0) == pytest.approx(1.0, rel=1e-13, abs=0)
        assert np.exp(mp.alpha * st.theta_s) == pytest.approx(
            mp.alpha * t + mp.c0, rel=1e-13, abs=0)
        assert st.sigma_s == pytest.approx(np.exp(-mp.alpha * st.theta_s), rel=1e-14, abs=0)


def test_uniform_shear_derived_value():
    # theta_s(200) = 2 log(100 + e^5), cross-checked by integrating
    # d theta/dt = exp(-alpha theta) from theta0 with a high-order integrator
    mp = MaterialParams(alpha=0.5, theta0=10.0)
    st = uniform_shear(mp, 200.0)
    assert st.theta_s == pytest.approx(11.030186648218763, rel=1e-13, abs=0)
    sol = solve_ivp(lambda t, y: np.exp(-mp.alpha * y), (0.0, 200.0), [10.0],
                    rtol=1e-12, atol=1e-14, dense_output=True)
    assert st.theta_s == pytest.approx(float(sol.y[0, -1]), rel=1e-9)


def test_uniform_shear_monotone_decreasing_stress():
    mp = MaterialParams(alpha=0.5, theta0=0.0)
    ts = np.linspace(0, 50, 40)
    sig = [uniform_shear(mp, t).sigma_s for t in ts]
    assert np.all(np.diff(sig) < 0)


def test_uniform_shear_rejects_negative_time():
    with pytest.raises(ParameterError):
        uniform_shear(MaterialParams(alpha=0.5), -1.0)


def test_base_state_ode_residual_second_order():
    # finite-difference d theta_s/dt matches sigma_s at 2nd order in the step
    mp = MaterialParams(alpha=0.5, theta0=2.0)
    t = 3.0
    errs = []
    hs = [1e-2, 5e-3, 2.5e-3, 1.25e-3]
    for h in hs:
        d = (uniform_shear(mp, t + h).theta_s - uniform_shear(mp, t - h).theta_s) / (2 * h)
        errs.append(abs(d - uniform_shear(mp, t).sigma_s))
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert slope == pytest.approx(2.0, abs=0.1)


def test_tau_of_t_basics():
    mp = MaterialParams(alpha=0.5, theta0=0.0)
    assert tau_of_t(mp, 0.0) == 0.0
    # strictly increasing
    ts = np.linspace(0, 100, 50)
    assert np.all(np.diff(tau_of_t(mp, ts)) > 0)
    # tau(t) = theta_s(t) - theta_s(0)
    for t in (0.5, 7.0, 300.0):
        assert tau_of_t(mp, t) == pytest.approx(
            uniform_shear(mp, t).theta_s - uniform_shear(mp, 0.0).theta_s, rel=1e-12, abs=0)


def test_tau_derived_value_against_quadrature():
    # alpha = 0.5, theta0 = 0 (c0 = 1), t = 2: tau = 2 log 2; also the
    # integral of sigma_s over [0, 2]
    mp = MaterialParams(alpha=0.5, theta0=0.0)
    val = tau_of_t(mp, 2.0)
    assert val == pytest.approx(2.0 * np.log(2.0), rel=1e-14, abs=0)
    oracle, err = quad(lambda s: uniform_shear(mp, s).sigma_s, 0.0, 2.0,
                       epsabs=1e-13, epsrel=1e-13)
    assert val == pytest.approx(oracle, rel=1e-10)


def test_time_maps_are_inverse():
    mp = MaterialParams(alpha=0.8, theta0=4.0)
    for t in np.geomspace(1e-8, 1e8, 30):
        assert t_of_tau(mp, tau_of_t(mp, t)) == pytest.approx(t, rel=1e-12, abs=0)
    taus = np.linspace(0.0, 30.0, 20)
    back = tau_of_t(mp, t_of_tau(mp, taus))
    assert np.allclose(back, taus, rtol=1e-12, atol=1e-13)


def test_t_of_tau_values():
    mp = MaterialParams(alpha=0.5, theta0=0.0)
    assert t_of_tau(mp, 0.0) == 0.0
    # exp(alpha tau) = 2 gives t = c0/alpha
    assert t_of_tau(mp, np.log(2.0) / 0.5) == pytest.approx(mp.c0 / 0.5, rel=1e-14, abs=0)
    assert t_of_tau(mp, 4.0) == pytest.approx(2.0 * (np.exp(2.0) - 1.0), rel=1e-14, abs=0)


def test_t_of_tau_overflow_guard():
    mp = MaterialParams(alpha=1.0, theta0=0.0)
    with pytest.raises(OverflowError):
        t_of_tau(mp, 1e4)


def test_constitutive_stress():
    mp = MaterialParams(n=0.3, alpha=0.5)
    assert constitutive_stress(mp, 0.0, 1.0) == 1.0
    # rate-insensitive limit
    mp0 = MaterialParams(n=0.0, alpha=0.5)
    for u in (0.1, 1.0, 17.0):
        assert constitutive_stress(mp0, 2.0, u) == pytest.approx(np.exp(-1.0), rel=1e-14, abs=0)
    mp1 = MaterialParams(n=0.1, alpha=0.5)
    assert constitutive_stress(mp1, 2.0, 3.0) == pytest.approx(
        np.exp(-1.0) * 3.0 ** 0.1, rel=1e-14, abs=0)
    with pytest.raises(ParameterError):
        constitutive_stress(mp1, 0.0, -1.0)
    with pytest.raises(ParameterError):
        constitutive_stress(mp1, 0.0, 0.0)


def _sample_out_triple(n, alpha, xi):
    U, Sigma, Theta = scale_invariant_solution(n, alpha)(xi)
    return GridTriple(xi=xi, U=U, Sigma=Sigma, Theta=Theta)


def _rescaled(evaluator, a, n, alpha):
    """The evaluator of rescale_triple's output: xi -> the scaled triple at xi."""
    def evaluate(xi):
        U, Sigma, Theta = evaluator(a * np.asarray(xi))
        return a * U, Sigma / a, (n + 1.0) / alpha * np.log(a) + Theta

    return evaluate


def test_rescale_identity():
    xi = np.geomspace(0.1, 10.0, 101)
    tr = _sample_out_triple(0.1, 0.5, xi)
    out = rescale_triple(tr, 1.0, 0.1, 0.5, evaluator=scale_invariant_solution(0.1, 0.5))
    assert np.allclose(out.U, tr.U, rtol=1e-12)
    assert np.allclose(out.Sigma, tr.Sigma, rtol=1e-12)
    assert np.allclose(out.Theta, tr.Theta, rtol=0, atol=1e-12)


def test_rescale_fixes_scale_invariant_solution():
    # Sigma = xi, U = 1/xi, Theta = -((n+1)/alpha) log xi is a fixed point of
    # the scaling family
    n, alpha = 0.1, 0.5
    xi = np.geomspace(0.1, 10.0, 201)
    tr = _sample_out_triple(n, alpha, xi)
    for a in (0.5, 2.0, 3.7):
        out = rescale_triple(tr, a, n, alpha, evaluator=scale_invariant_solution(n, alpha))
        keep = np.isin(xi, out.xi)
        assert np.allclose(out.U, tr.U[keep], rtol=1e-12)
        assert np.allclose(out.Sigma, tr.Sigma[keep], rtol=1e-12)
        assert np.allclose(out.Theta, tr.Theta[keep], rtol=0, atol=1e-12)


def test_rescale_roundtrip():
    n, alpha = 0.2, 0.7
    xi = np.geomspace(0.05, 20.0, 301)
    tr = _sample_out_triple(n, alpha, xi)
    a = 1.7
    evaluator = scale_invariant_solution(n, alpha)
    once = rescale_triple(tr, a, n, alpha, evaluator=evaluator)
    back = rescale_triple(once, 1.0 / a, n, alpha, evaluator=_rescaled(evaluator, a, n, alpha))
    keep = np.isin(xi, back.xi)
    assert np.allclose(back.U, tr.U[keep], rtol=1e-7)
    assert np.allclose(back.Sigma, tr.Sigma[keep], rtol=1e-7)
    assert np.allclose(back.Theta, tr.Theta[keep], rtol=0, atol=1e-7)


def test_rescale_empty_overlap():
    xi = np.geomspace(1.0, 2.0, 50)
    tr = _sample_out_triple(0.1, 0.5, xi)
    evaluator = scale_invariant_solution(0.1, 0.5)
    with pytest.raises(EmptyOverlapError):
        rescale_triple(tr, 100.0, 0.1, 0.5, evaluator=evaluator)
    with pytest.raises(ParameterError):
        rescale_triple(tr, -1.0, 0.1, 0.5, evaluator=evaluator)


@settings(max_examples=60, deadline=None)
@given(t=hnp.arrays(np.float64, st.integers(0, 40), elements=st.floats(0.0, 1e6)),
       alpha=st.floats(1e-3, 20.0), theta0=st.floats(-30.0, 30.0))
def test_uniform_shear_array_matches_scalar_calls(t, alpha, theta0):
    mp = MaterialParams(alpha=alpha, theta0=theta0)
    t = np.concatenate([[0.0, 1e6], t])
    base = uniform_shear(mp, t)
    scalar = [uniform_shear(mp, float(ti)) for ti in t]
    assert np.array_equal(base.t, t)
    assert np.array_equal(base.theta_s, [s.theta_s for s in scalar])
    assert np.array_equal(base.sigma_s, [s.sigma_s for s in scalar])


def test_uniform_shear_zero_d_returns_floats():
    mp = MaterialParams(alpha=0.7, theta0=1.3)
    for t in (2.5, np.float64(2.5), np.array(2.5)):
        st_ = uniform_shear(mp, t)
        assert all(type(v) is float for v in (st_.t, st_.theta_s, st_.sigma_s))
    with pytest.raises(ParameterError):
        uniform_shear(mp, np.array([0.0, -1e-3, 2.0]))
