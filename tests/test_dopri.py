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

import shearlab.orbit as orbit
from _dopri_reference import reference_solve_ivp
from shearlab import MaterialParams, PlanarParams, frozen_mode_solution, mode_matrix
from shearlab import _dopri, shoot_heteroclinic
from shearlab._dopri import solve_ivp

PARAMS = MaterialParams(n=0.1, alpha=0.5, kappa=0.0)
INIT = (0.3, -0.7)
# the caller gives every solve its first trial step; SciPy is given the same one
FIRST = 1e-2


def mode_rhs(k, j):
    (a11, a12), (a21, a22) = mode_matrix(PARAMS, k, j).tolist()

    def rhs(tau, u, th):
        return (a11 * u + a12 * th, a21 * u + a22 * th)
    return rhs


def oscillator(t, u, v):
    return (v, -u)


def scipy_form(f):
    """f(t, a, b) as SciPy's f(t, y)."""
    def g(t, y):
        return f(t, *y)
    return g


def test_frozen_mode_matches_closed_form():
    for k, j, tau in ((0.3, 1, 2.0), (0.0, 1, 1.0), (0.05, 2, 0.5)):
        sol = solve_ivp(mode_rhs(k, j), (0.0, tau), INIT, FIRST, rtol=1e-10, atol=1e-14)
        assert sol.status == 0 and sol.t[-1] == tau
        u, th = frozen_mode_solution(PARAMS, k, j, INIT, sol.t)
        scale = np.maximum(np.abs(u), np.abs(th))
        assert np.max(np.abs(sol.y[0] - u) / scale) < 1e-8
        assert np.max(np.abs(sol.y[1] - th) / scale) < 1e-8


@pytest.mark.parametrize("k, j, tau, rtol", [(0.3, 1, 2.0, 1e-10), (0.0, 1, 1.0, 1e-6),
                                             (0.05, 2, 0.5, 1e-8)])
def test_step_sequence_matches_scipy_rk45(k, j, tau, rtol):
    rhs = mode_rhs(k, j)
    ours = solve_ivp(rhs, (0.0, tau), INIT, FIRST, rtol=rtol, atol=1e-14)
    ref = scipy_solve_ivp(scipy_form(rhs), (0.0, tau), INIT, method="RK45", rtol=rtol,
                          atol=1e-14, first_step=FIRST)
    assert ours.nfev == ref.nfev
    assert ours.t.size == ref.t.size
    # rounding in the error estimate (a difference of stages) moves each step
    # size at the 1e-8 level, so the samples agree to that, not bit for bit
    assert np.allclose(ours.t, ref.t, rtol=1e-7, atol=0.0)
    assert np.allclose(ours.y, ref.y, rtol=1e-7, atol=1e-14)
    assert ours.njev == 0 and ours.nlu == 0


@pytest.mark.parametrize("first_step", [1e-4, 0.05, 2.0])
def test_first_step_matches_scipy_rk45(first_step):
    # SciPy's meaning: the first trial step; a step past max_step is cut to it
    rhs = mode_rhs(0.3, 1)
    ours = solve_ivp(rhs, (0.0, 2.0), INIT, rtol=1e-10, atol=1e-14, max_step=0.5,
                     first_step=first_step)
    ref = scipy_solve_ivp(scipy_form(rhs), (0.0, 2.0), INIT, method="RK45", rtol=1e-10,
                          atol=1e-14, max_step=0.5, first_step=first_step)
    assert ours.nfev == ref.nfev and ours.t.size == ref.t.size
    if first_step < 1e-3:   # accepted as given
        assert ours.t[1] == ref.t[1] == first_step
    # after a first step far below the controller's choice the error estimate is
    # mostly rounding, which moves the next step sizes at the 1e-6 level
    assert np.allclose(ours.t, ref.t, rtol=1e-5, atol=0.0)
    assert np.allclose(ours.y, ref.y, rtol=1e-5, atol=1e-14)
    for bad in (0.0, -1.0, 2.5, math.nan):
        with pytest.raises(ValueError, match="first_step"):
            solve_ivp(rhs, (0.0, 2.0), INIT, first_step=bad)
    # an infinite first step would never fall below the minimum on an unbounded span
    with pytest.raises(ValueError, match="first_step"):
        solve_ivp(rhs, (0.0, math.inf), INIT, first_step=math.inf)
    with pytest.raises(TypeError, match="first_step"):
        solve_ivp(rhs, (0.0, 2.0), INIT)


def test_never_exceeds_max_step():
    sol = solve_ivp(oscillator, (0.0, 10.0), (1.0, 0.0), FIRST, rtol=1e-3, atol=1e-6,
                    max_step=0.37)
    assert np.all(np.diff(sol.t) <= 0.37 * (1.0 + 1e-14))   # t_new - t rounds
    assert sol.t[-1] == 10.0
    free = solve_ivp(oscillator, (0.0, 10.0), (1.0, 0.0), FIRST, rtol=1e-3, atol=1e-6)
    assert np.diff(free.t).max() > 0.37      # the bound is what limits the steps


@pytest.mark.parametrize("direction, root", [(-1, 0.5 * math.pi), (1, 1.5 * math.pi)])
def test_stop_condition_ends_the_solve_one_step_past_the_crossing(direction, root):
    # u = cos t crosses 0 downward at pi/2 and upward at 3 pi/2, where v = -sin t > 0
    def stop(t, u, v):
        return u <= 0.0 if direction < 0 else u >= 0.0 and v > 0.0

    sol = solve_ivp(oscillator, (0.0, 10.0), (1.0, 0.0), FIRST, stop=stop, rtol=1e-10,
                    atol=1e-14, max_step=0.1)
    assert sol.status == 1 and sol.message == "The stop condition held after a step."
    # the solve ends at the first step past the crossing, not on it
    held = [stop(t, u, v) for t, (u, v) in zip(sol.t, sol.y.T)]
    assert held[-1] and not any(held[:-1])
    assert root < sol.t[-1] <= root + 0.1
    # its steps are the prefix of SciPy's steps without a stop, up to SciPy's
    # first step where the stop holds; rounding in the error estimate moves
    # each step size at the 1e-8 level, as in the full solves above, so the
    # samples move along the unit circle by up to about 2e-9
    ref = scipy_solve_ivp(scipy_form(oscillator), (0.0, 10.0), (1.0, 0.0), method="RK45",
                          rtol=1e-10, atol=1e-14, max_step=0.1, first_step=FIRST)
    first = next(i for i, (t, y) in enumerate(zip(ref.t, ref.y.T)) if stop(t, *y))
    assert sol.t.size == first + 1 and sol.nfev < ref.nfev
    assert np.allclose(sol.t, ref.t[:first + 1], rtol=1e-7, atol=0.0)
    assert np.allclose(sol.y, ref.y[:, :first + 1], rtol=0.0, atol=1e-8)


def test_step_collapse_returns_failure():
    def blowup(t, a, b):
        return (a * a, 0.0)      # a = 1/(1 - t)

    sol = solve_ivp(blowup, (0.0, 2.0), (1.0, 1.0), FIRST, rtol=1e-6, atol=1e-9)
    assert sol.status == -1 and not sol.success
    assert sol.message == "Required step size is less than spacing between numbers."
    assert sol.t[-1] == pytest.approx(1.0, abs=1e-5) and sol.y[0, -1] > 1e12
    ref = scipy_solve_ivp(scipy_form(blowup), (0.0, 2.0), (1.0, 1.0), method="RK45",
                          rtol=1e-6, atol=1e-9, first_step=FIRST)
    assert ref.status == -1 and sol.t.size == ref.t.size and sol.nfev == ref.nfev


NONFINITE_PROBE = """
import json, math
from shearlab._dopri import solve_ivp

out = []
for y0 in ((math.nan, 0.0), (math.inf, 0.0), (0.0, -math.inf)):
    sol = solve_ivp(lambda t, a, b: (a, b), (0.0, 1.0), y0, 0.1)
    out.append([sol.status, sol.nfev % 6, sol.t.tolist()])
print(json.dumps(out))
"""


def test_nonfinite_start_returns_failure():
    """A NaN step once made the step loop spin for ever; run it where a timeout ends it."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-c", NONFINITE_PROBE], env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    # every trial step is rejected, down to the minimum step: status -1 with only
    # t0, after the call at t0 and 6 per trial step
    assert json.loads(proc.stdout) == [[-1, 1, [0.0]]] * 3


def test_name_and_argument_checks():
    assert solve_ivp.__name__ == "solve_ivp"
    with pytest.raises(ValueError):
        solve_ivp(oscillator, (1.0, 0.0), (1.0, 0.0), FIRST)
    with pytest.raises(ValueError):
        solve_ivp(oscillator, (0.0, 1.0), (1.0, 0.0), FIRST, max_step=0.0)
    with pytest.raises(ValueError):
        solve_ivp(oscillator, (0.0, 1.0), (1.0, 0.0), FIRST, atol=-1.0)
    with pytest.raises(ValueError):
        solve_ivp(oscillator, (0.0, 1.0), (1.0, 0.0, 0.0), FIRST)


def test_tableau_is_scipy_rk45_bit_for_bit():
    assert _dopri.ERROR_ESTIMATOR_ORDER == RK45.error_estimator_order
    for name in ("A", "B", "C", "E"):
        ours = np.array(getattr(_dopri, name), dtype=float)
        ref = getattr(RK45, name)
        assert ours.shape == ref.shape and ours.tobytes() == ref.tobytes(), name


SWEEP = [(n, alpha, nu) for n in (0.05, 0.1) for alpha in (0.5, 1.0)
         for nu in (0.05, 0.1, 0.5)]


# --- the unrolled stepper against the tuple-convention oracle ---


def _assert_same_bits(ours, ref):
    assert ours.status == ref.status and ours.nfev == ref.nfev
    assert ours.t.shape == ref.t.shape and ours.t.tobytes() == ref.t.tobytes()
    assert ours.y.shape == ref.y.shape and ours.y.tobytes() == ref.y.tobytes()


@settings(max_examples=80, deadline=None)
@given(m=st.lists(st.floats(-3.0, 3.0), min_size=4, max_size=4),
       forcing=st.floats(-2.0, 2.0), y0=st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
       t_end=st.floats(0.1, 3.0), rtol=st.sampled_from([1e-3, 1e-6, 1e-9]),
       first_step=st.sampled_from([1e-4, FIRST, 0.1]),
       level=st.none() | st.floats(-2.0, 2.0), above=st.booleans())
def test_stepper_is_bit_identical_to_the_tuple_oracle(m, forcing, y0, t_end, rtol, first_step,
                                                      level, above):
    # random non-autonomous 2x2 linear systems, with and without a stop on
    # a crossing a level: the same t, y, status and RHS count, bit for bit
    m11, m12, m21, m22 = m

    def fun(t, a, b):
        return (m11 * a + m12 * b + forcing * math.sin(t), m21 * a + m22 * b)

    stop = None
    if level is not None:
        def stop(t, a, b):
            return a >= level if above else a <= level
    options = dict(first_step=first_step, rtol=rtol, atol=1e-9, stop=stop)
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
    options = dict(first_step=FIRST, rtol=1e-10, atol=1e-14)
    _assert_same_bits(solve_ivp(rhs, (0.0, 2.0), INIT, **options),
                      reference_solve_ivp(rhs, (0.0, 2.0), INIT, **options))

