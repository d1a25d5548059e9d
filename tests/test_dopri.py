import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import RK45, solve_ivp as scipy_solve_ivp
from scipy.optimize import brentq as scipy_brentq

import shearlab.orbit as orbit
from _dopri_reference import reference_solve_ivp
from shearlab import MaterialParams, PlanarParams, frozen_mode_solution, mode_matrix
from shearlab import _dopri, shoot_heteroclinic
from shearlab._dopri import _brentq, _dense_coefficients, solve_ivp

PARAMS = MaterialParams(n=0.1, alpha=0.5, kappa=0.0)
INIT = (0.3, -0.7)


def mode_rhs(k, j):
    (a11, a12), (a21, a22) = mode_matrix(PARAMS, k, j).tolist()

    def rhs(tau, u, th):
        return (a11 * u + a12 * th, a21 * u + a22 * th)
    return rhs


def oscillator(t, u, v):
    return (v, -u)


def scipy_form(f):
    """f(t, a, b) as SciPy's f(t, y), with an event's attributes."""
    def g(t, y):
        return f(t, *y)
    g.__dict__.update(f.__dict__)
    return g


def test_frozen_mode_matches_closed_form():
    for k, j, tau in ((0.3, 1, 2.0), (0.0, 1, 1.0), (0.05, 2, 0.5)):
        sol = solve_ivp(mode_rhs(k, j), (0.0, tau), INIT, rtol=1e-10, atol=1e-14)
        assert sol.status == 0 and sol.t[-1] == tau
        u, th = frozen_mode_solution(PARAMS, k, j, INIT, sol.t)
        scale = np.maximum(np.abs(u), np.abs(th))
        assert np.max(np.abs(sol.y[0] - u) / scale) < 1e-8
        assert np.max(np.abs(sol.y[1] - th) / scale) < 1e-8


@pytest.mark.parametrize("k, j, tau, rtol", [(0.3, 1, 2.0, 1e-10), (0.0, 1, 1.0, 1e-6),
                                             (0.05, 2, 0.5, 1e-8)])
def test_step_sequence_matches_scipy_rk45(k, j, tau, rtol):
    rhs = mode_rhs(k, j)
    ours = solve_ivp(rhs, (0.0, tau), INIT, rtol=rtol, atol=1e-14)
    ref = scipy_solve_ivp(scipy_form(rhs), (0.0, tau), INIT, method="RK45", rtol=rtol,
                          atol=1e-14)
    assert ours.nfev == ref.nfev
    assert ours.t.size == ref.t.size
    # rounding in the error estimate (a difference of stages) moves each step
    # size at the 1e-8 level, so the samples agree to that, not bit for bit
    assert np.allclose(ours.t, ref.t, rtol=1e-7, atol=0.0)
    assert np.allclose(ours.y, ref.y, rtol=1e-7, atol=1e-14)
    assert ours.njev == 0 and ours.nlu == 0


def test_never_exceeds_max_step():
    sol = solve_ivp(oscillator, (0.0, 10.0), (1.0, 0.0), rtol=1e-3, atol=1e-6,
                    max_step=0.37)
    assert np.all(np.diff(sol.t) <= 0.37 * (1.0 + 1e-14))   # t_new - t rounds
    assert sol.t[-1] == 10.0
    free = solve_ivp(oscillator, (0.0, 10.0), (1.0, 0.0), rtol=1e-3, atol=1e-6)
    assert np.diff(free.t).max() > 0.37      # the bound is what limits the steps


def test_t_eval_samples_the_dense_output():
    rhs = mode_rhs(0.3, 1)
    steps = solve_ivp(rhs, (0.0, 2.0), INIT, rtol=1e-8, atol=1e-14)
    mids = 0.5 * (steps.t[:-1] + steps.t[1:])
    t_eval = np.sort(np.concatenate([steps.t, mids]))
    sol = solve_ivp(rhs, (0.0, 2.0), INIT, rtol=1e-8, atol=1e-14, t_eval=t_eval)
    # sampling does not change the steps
    assert sol.nfev == steps.nfev
    assert np.array_equal(sol.t, t_eval)
    # at x = 0 the interpolant is the step's start, at x = 1 its end
    assert sol.y[:, 0].tolist() == list(INIT)
    at_steps = np.isin(t_eval, steps.t)
    assert np.allclose(sol.y[:, at_steps], steps.y, rtol=1e-14, atol=1e-16)
    # between the steps it is 4th-order accurate
    u, th = frozen_mode_solution(PARAMS, 0.3, 1, INIT, t_eval[~at_steps])
    assert np.allclose(sol.y[0, ~at_steps], u, rtol=1e-6, atol=0.0)
    assert np.allclose(sol.y[1, ~at_steps], th, rtol=1e-6, atol=0.0)


@pytest.mark.parametrize("direction, root", [(-1, 0.5 * math.pi), (1, 1.5 * math.pi)])
def test_terminal_event_is_located_and_appended(direction, root):
    def crossing(t, u, v):
        return u

    crossing.terminal = True
    crossing.direction = direction
    sol = solve_ivp(oscillator, (0.0, 10.0), (1.0, 0.0), rtol=1e-10, atol=1e-14,
                    max_step=0.1, events=crossing)
    assert sol.status == 1 and sol.message == "A termination event occurred."
    assert sol.t[-1] == pytest.approx(root, abs=1e-9)
    # the appended point lies on the event to brentq's tolerance in t
    assert abs(sol.y[0, -1]) <= 1e-14
    assert np.all(np.diff(sol.t) > 0)
    ref = scipy_solve_ivp(scipy_form(oscillator), (0.0, 10.0), (1.0, 0.0), method="RK45",
                          rtol=1e-10, atol=1e-14, max_step=0.1, events=scipy_form(crossing))
    assert sol.t.size == ref.t.size and sol.nfev == ref.nfev
    assert sol.t[-1] == pytest.approx(ref.t[-1], rel=1e-12)
    assert np.allclose(sol.y[:, -1], ref.y[:, -1], rtol=1e-10, atol=1e-14)


def test_step_collapse_returns_failure():
    def blowup(t, a, b):
        return (a * a, 0.0)      # a = 1/(1 - t)

    sol = solve_ivp(blowup, (0.0, 2.0), (1.0, 1.0), rtol=1e-6, atol=1e-9)
    assert sol.status == -1 and not sol.success
    assert sol.message == "Required step size is less than spacing between numbers."
    assert sol.t[-1] == pytest.approx(1.0, abs=1e-5) and sol.y[0, -1] > 1e12
    ref = scipy_solve_ivp(scipy_form(blowup), (0.0, 2.0), (1.0, 1.0), method="RK45",
                          rtol=1e-6, atol=1e-9)
    assert ref.status == -1 and sol.t.size == ref.t.size and sol.nfev == ref.nfev


NONFINITE_PROBE = """
import json, math
from shearlab._dopri import solve_ivp

out = []
for y0, t_eval in (((math.nan, 0.0), None), ((math.inf, 0.0), None), ((0.0, -math.inf), None),
                   ((math.nan, 0.0), [0.5])):
    sol = solve_ivp(lambda t, a, b: (a, b), (0.0, 1.0), y0, t_eval=t_eval)
    out.append([sol.status, sol.nfev, sol.t.tolist()])
print(json.dumps(out))
"""


def test_nonfinite_start_returns_failure():
    """A NaN first step once made the step loop spin for ever; run it where a timeout ends it."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-c", NONFINITE_PROBE], env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    # status -1 after the two calls of the first-step estimate, with only t0 (or no t_eval point)
    assert json.loads(proc.stdout) == [[-1, 2, [0.0]]] * 3 + [[-1, 2, []]]


def test_name_and_argument_checks():
    assert solve_ivp.__name__ == "solve_ivp"
    with pytest.raises(ValueError):
        solve_ivp(oscillator, (1.0, 0.0), (1.0, 0.0))
    with pytest.raises(ValueError):
        solve_ivp(oscillator, (0.0, 1.0), (1.0, 0.0), max_step=0.0)
    with pytest.raises(ValueError):
        solve_ivp(oscillator, (0.0, 1.0), (1.0, 0.0), atol=-1.0)
    with pytest.raises(ValueError):
        solve_ivp(oscillator, (0.0, 1.0), (1.0, 0.0, 0.0))


def test_tableau_is_scipy_rk45_bit_for_bit():
    assert _dopri.ERROR_ESTIMATOR_ORDER == RK45.error_estimator_order
    for name in ("A", "B", "C", "E", "P"):
        ours = np.array(getattr(_dopri, name), dtype=float)
        ref = getattr(RK45, name)
        assert ours.shape == ref.shape and ours.tobytes() == ref.tobytes(), name


def _recorded(f):
    """f, and the list of the points it was called at."""
    calls = []

    def g(x):
        calls.append(x)
        return f(x)
    return g, calls


SWEEP = [(n, alpha, nu) for n in (0.05, 0.1) for alpha in (0.5, 1.0)
         for nu in (0.05, 0.1, 0.5)]


def test_brentq_port_matches_scipy_on_the_node_event(monkeypatch):
    roots = []

    def both(f, a, b):
        ours, ref = _brentq(f, a, b), scipy_brentq(f, a, b, xtol=4 * _dopri._EPS,
                                                      rtol=4 * _dopri._EPS)
        roots.append((ours, ref))
        return ours

    monkeypatch.setattr(_dopri, "_brentq", both)
    for key in SWEEP:
        shoot_heteroclinic(PlanarParams(*key))
    assert len(roots) == len(SWEEP)
    assert all(ours.hex() == ref.hex() for ours, ref in roots), roots


def _random_bracket(rng):
    """A function with one sign change in a random bracket, from a few families."""
    lo = rng.uniform(-10.0, 10.0)
    hi = lo + 10.0 ** rng.uniform(-8.0, 2.0)
    r = rng.uniform(lo, hi)
    kind = rng.integers(5)
    c = rng.uniform(0.1, 10.0)
    if kind == 0:
        f = lambda x: (x - r) * (1.0 + c * (x - lo) ** 2)
    elif kind == 1:
        f = lambda x: math.tanh(c * (x - r))
    elif kind == 2:
        f = lambda x: math.exp(c * (x - r)) - 1.0
    elif kind == 3:
        f = lambda x: (x - r) ** 3 + c * 1e-6 * (x - r)
    else:
        f = lambda x: math.atan(c * (x - r)) - 1e-3 * math.sin(x)
    if f(lo) * f(hi) >= 0:   # the perturbed families may lose the sign change
        f = lambda x: x - r
    return f, lo, hi


def test_brentq_port_matches_scipy_on_random_brackets():
    rng = np.random.default_rng(20141)
    for i in range(1200):
        f, lo, hi = _random_bracket(rng)
        xtol = (4 * _dopri._EPS, 1e-12, 1e-6)[i % 3]
        a, b = (lo, hi) if i % 2 else (hi, lo)
        ours, our_calls = _recorded(f)
        ref, ref_calls = _recorded(f)
        root = _brentq(ours, a, b, xtol=xtol)
        assert root.hex() == scipy_brentq(ref, a, b, xtol=xtol).hex(), (i, a, b)
        assert our_calls == ref_calls, i


def test_brentq_port_raises_as_scipy_does():
    same_sign = (lambda x: x * x + 1.0, -1.0, 1.0)
    nan_inside = (lambda x: math.nan if 0.0 < x < 1.0 else x - 0.5, -1.0, 2.0)
    slow = (lambda x: math.exp(x) - 2.0, 0.0, 1.0)
    for f, a, b in (same_sign, nan_inside):
        with pytest.raises(ValueError):
            scipy_brentq(f, a, b)
        with pytest.raises(ValueError):
            _brentq(f, a, b)
    with pytest.raises(ValueError, match="NaN"):
        _brentq(lambda x: math.nan, 0.0, 1.0)
    f, a, b = slow
    with pytest.raises(RuntimeError):
        scipy_brentq(f, a, b, maxiter=4)
    with pytest.raises(RuntimeError):
        _brentq(f, a, b, maxiter=4)
    eps4 = 4 * _dopri._EPS
    assert _brentq(f, a, b).hex() == scipy_brentq(f, a, b, xtol=eps4, rtol=eps4).hex()
    # a root at an end is returned without iterating
    assert _brentq(lambda x: x, 0.0, 1.0) == 0.0 == scipy_brentq(lambda x: x, 0.0, 1.0)


# --- the unrolled stepper against the tuple-convention oracle ---


def _assert_same_bits(ours, ref):
    assert ours.status == ref.status and ours.nfev == ref.nfev
    assert ours.t.shape == ref.t.shape and ours.t.tobytes() == ref.t.tobytes()
    assert ours.y.shape == ref.y.shape and ours.y.tobytes() == ref.y.tobytes()


@settings(max_examples=80, deadline=None)
@given(m=st.lists(st.floats(-3.0, 3.0), min_size=4, max_size=4),
       forcing=st.floats(-2.0, 2.0), y0=st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
       t_end=st.floats(0.1, 3.0), rtol=st.sampled_from([1e-3, 1e-6, 1e-9]),
       fractions=st.none() | st.lists(st.floats(0.0, 1.0), max_size=8),
       level=st.none() | st.floats(-2.0, 2.0), direction=st.sampled_from([-1, 0, 1]))
def test_stepper_is_bit_identical_to_the_tuple_oracle(m, forcing, y0, t_end, rtol, fractions,
                                                      level, direction):
    # random non-autonomous 2x2 linear systems, with and without t_eval and a
    # terminal event: the same t, y, status and RHS count, bit for bit
    m11, m12, m21, m22 = m

    def fun(t, a, b):
        return (m11 * a + m12 * b + forcing * math.sin(t), m21 * a + m22 * b)

    events = None
    if level is not None:
        def events(t, a, b):
            return a - level
        events.terminal = True
        events.direction = direction
    t_eval = None if fractions is None else sorted({f * t_end for f in fractions})
    options = dict(rtol=rtol, atol=1e-9, t_eval=t_eval, events=events)
    _assert_same_bits(solve_ivp(fun, (0.0, t_end), y0, **options),
                      reference_solve_ivp(fun, (0.0, t_end), y0, **options))


def test_sweep_orbits_are_bit_identical_to_the_tuple_oracle(monkeypatch):
    ours = [shoot_heteroclinic(PlanarParams(*key)) for key in SWEEP]
    monkeypatch.setattr(orbit, "solve_ivp", reference_solve_ivp)
    for key, path in zip(SWEEP, ours):
        ref = shoot_heteroclinic(PlanarParams(*key))
        for name in ("eta", "a", "b"):
            assert getattr(path, name).tobytes() == getattr(ref, name).tobytes(), (key, name)


def test_mode_samples_are_bit_identical_to_the_tuple_oracle():
    rhs = mode_rhs(0.3, 1)
    t_eval = np.linspace(0.0, 2.0, 1200)
    for options in ({}, {"t_eval": t_eval}):
        _assert_same_bits(solve_ivp(rhs, (0.0, 2.0), INIT, rtol=1e-10, atol=1e-14, **options),
                          reference_solve_ivp(rhs, (0.0, 2.0), INIT, rtol=1e-10, atol=1e-14,
                                              **options))


STAGES = (-0.01, -0.058, 0.092, 0.745, -0.037, 0.008, -0.064)


def test_dense_coefficients_are_plain_left_to_right_sums():
    # the bits of Python 3.10/3.11's sum(), on every Python version
    pinned = [float.fromhex(x) for x in ("-0x1.47ae147ae147bp-7", "-0x1.49b99960eaac6p+1",
                                         "0x1.d99394408c48fp+2", "-0x1.119d77f2ce4a0p+2")]
    assert list(_dense_coefficients(*STAGES)) == pinned
    # a compensated sum (Python 3.12's sum(), math.fsum) rounds three of them otherwise
    terms = [[k * p[j] for k, p in zip(STAGES, _dopri.P)] for j in range(4)]
    assert sum(math.fsum(t) != q for t, q in zip(terms, pinned)) == 3
    # the zero row of P stays in: an infinite stage 2 makes every coefficient NaN
    assert all(math.isnan(q) for q in _dense_coefficients(1.0, math.inf, *STAGES[2:]))


def test_t_eval_is_checked_as_scipy_checks_it():
    def decay(t, y):
        return -y

    for t_eval, match in (([[0.5, 1.0]], "1-dimensional"), ([-1.0, 0.5], "within"),
                          ([0.5, 1.5], "within"), ([1.0, 0.5], "sorted"),
                          ([0.5, 0.5], "sorted")):
        with pytest.raises(ValueError, match=match):
            solve_ivp(oscillator, (0.0, 1.0), (1.0, 0.0), t_eval=t_eval)
        with pytest.raises(ValueError, match=match):
            scipy_solve_ivp(decay, (0.0, 1.0), [1.0], t_eval=t_eval)
    # SciPy lets NaN through; it is not a point of [t0, t1]
    with pytest.raises(ValueError, match="within"):
        solve_ivp(oscillator, (0.0, 1.0), (1.0, 0.0), t_eval=[0.5, math.nan])
    # the ends of t_span and an empty t_eval are allowed
    assert solve_ivp(oscillator, (0.0, 1.0), (1.0, 0.0), t_eval=[0.0, 1.0]).t.tolist() == [0.0, 1.0]
    assert solve_ivp(oscillator, (0.0, 1.0), (1.0, 0.0), t_eval=[]).t.size == 0
