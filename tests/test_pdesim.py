import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid

from shearlab import (
    MaterialParams,
    ParameterError,
    PositivityError,
    Grid1D,
    FieldState,
    SimConfig,
    initial_uniform,
    initial_gaussian_bump,
    step,
    run,
    uniform_shear,
    PlanarParams,
    LocalizedSolution,
    shoot_heteroclinic,
    reparametrize,
    reconstruct,
)
from shearlab.pdesim import _solve
from shearlab.stability import energy_certificate


def test_grid_validation():
    with pytest.raises(ParameterError):
        Grid1D(8)
    g = Grid1D(64)
    assert g.h == pytest.approx(1.0 / 64)
    assert g.x.size == 65


def test_conservation_forms():
    # midpoint telescoping is exact; the nodal trapezoid with one-sided end
    # stencils is exact through quadratic v and O(h^2) beyond
    def v_of(x):
        return x + 0.05 * x ** 3 * (1.0 - x)

    errs = {}
    for N in (64, 128):
        g = Grid1D(N)
        st = FieldState(g, 0.0, v_of(g.x), np.zeros(g.x.size))
        mid, trap = st.conservation()
        assert mid == pytest.approx(1.0, abs=1e-14)
        errs[N] = abs(trap - 1.0)
    assert 1e-10 < errs[64] < 1e-2
    assert errs[64] / errs[128] == pytest.approx(4.0, rel=0.4)


def test_positivity_guard():
    g = Grid1D(32)
    v = g.x - 0.2 * np.sin(2 * np.pi * g.x) / (2 * np.pi) * 8.0   # u dips negative
    st = FieldState(g, 0.0, v, np.zeros_like(g.x))
    assert np.any(st.strain_rate() <= 0)
    with pytest.raises(PositivityError):
        st.stress(MaterialParams(n=0.1, alpha=0.5))


def _bad_velocity(kind, x):
    if kind == "nonpositive":
        return x - 0.2 * np.sin(2 * np.pi * x) / (2 * np.pi) * 8.0
    v = x.copy()
    if kind == "nan":
        v[x.size // 2] = np.nan
    else:
        v[-1] = np.inf      # u = +inf at the last two nodes, finite elsewhere
    return v


@pytest.mark.parametrize("via", ["stress", "step", "run"])
@pytest.mark.parametrize("kind", ["nonpositive", "nan", "inf"])
def test_positivity_check(tmp_path, kind, via):
    g = Grid1D(32)
    params = MaterialParams(n=0.05, alpha=0.5, kappa=0.5)
    state = FieldState(g, 0.0, _bad_velocity(kind, g.x), np.zeros(g.x.size))
    with pytest.raises(PositivityError, match="t = 0 [(]min u = ") as exc:
        if via == "stress":
            state.stress(params)
        elif via == "step":
            step(state, params, t_target=1.0)
        else:
            path = tmp_path / "init.npz"
            np.savez(path, v=state.v, theta=state.theta)
            run(SimConfig(N=32, init="from-file", init_path=str(path), t_end=1.0, frames=2))
    assert exc.value.state.t == 0.0
    assert np.array_equal(exc.value.state.v, state.v, equal_nan=True)


def test_step_reports_the_state_that_lost_positivity():
    # an adiabatic bump localizes: by t = 2 the strain rate is no longer positive
    params = MaterialParams(n=0.05, alpha=0.5, kappa=0.0, theta0=-4.0)
    state = initial_gaussian_bump(Grid1D(64), params)
    with pytest.raises(PositivityError) as exc:
        step(state, params, t_target=2.0)
    assert 0.0 < exc.value.state.t <= 2.0


def test_run_reports_the_first_frame_that_lost_positivity():
    # an adiabatic bump localizes before t = 0.5, the first frame after t = 0;
    # the frames at 1, 1.5 and 2 have lost positivity too
    with pytest.raises(PositivityError) as exc:
        run(SimConfig(kappa=0.0, N=64, t_end=2.0, frames=5))
    st = exc.value.state
    assert st.t == 0.5
    assert str(exc.value).startswith(f"strain rate lost positivity at t = {st.t:.6g} (min u = ")
    with pytest.raises(PositivityError):
        st.positive_strain_rate()


def test_every_solve_is_banded_lsoda(monkeypatch):
    import shearlab.pdesim as pdesim
    calls = []
    solve = pdesim.solve_ivp

    def spy(*args, **kwargs):
        calls.append(kwargs)
        return solve(*args, **kwargs)

    monkeypatch.setattr(pdesim, "solve_ivp", spy)
    adiabatic = MaterialParams(n=0.05, alpha=0.5, kappa=0.0, theta0=0.0)
    step(initial_uniform(Grid1D(32), adiabatic), adiabatic, t_target=0.5)
    run(SimConfig(N=32, t_end=1.0))
    assert len(calls) == 2
    for kwargs in calls:
        assert [kwargs.get(k) for k in ("method", "lband", "uband")] == ["LSODA", 4, 4]


def test_step_evaluates_the_strain_rate_twice(monkeypatch):
    # the start check and the end check; the RHS's evaluations inside LSODA are not counted
    import shearlab.pdesim as pdesim
    calls, solving = [], []
    rate, solve = pdesim._strain_rate, pdesim.solve_ivp

    def counted(v, h):
        if not solving:
            calls.append(v.shape)
        return rate(v, h)

    def flagged(*args, **kwargs):
        solving.append(True)
        try:
            return solve(*args, **kwargs)
        finally:
            solving.pop()

    monkeypatch.setattr(pdesim, "_strain_rate", counted)
    monkeypatch.setattr(pdesim, "solve_ivp", flagged)
    params = MaterialParams(n=0.05, alpha=0.5, kappa=0.5, theta0=-4.0)
    out = step(initial_gaussian_bump(Grid1D(32), params), params, dt=0.5)
    assert out.t == 0.5
    assert calls == [(33,), (33,)]


def test_step_returns_a_valid_state_whatever_its_summation_rounding(monkeypatch):
    # sum(diff(v)) telescopes to v[N] - v[0]; for a steep valid state their float
    # difference is rounding alone (1.9e-9 here), and step returns the state
    import shearlab.pdesim as pdesim
    grid = Grid1D(8192)
    v = np.sort(np.random.default_rng(0).uniform(size=grid.N + 1)) * 1e7
    theta = np.zeros(grid.N + 1)
    assert abs(float(np.sum(np.diff(v))) - (v[-1] - v[0])) > 1e-10
    monkeypatch.setattr(pdesim, "_solve", lambda state, *args: ([1.0], v[None], theta[None]))
    params = MaterialParams(n=0.05, alpha=0.5, kappa=0.5, theta0=0.0)
    out = step(initial_uniform(grid, params), params, dt=1.0)
    assert out.t == 1.0 and out.v.tobytes() == v.tobytes()
    assert out.theta.tobytes() == theta.tobytes()


def test_uniform_shear_tracking_diffusive():
    # the discrete scheme is exact in space on the uniform state; the error
    # is the time integrator's
    params = MaterialParams(n=0.05, alpha=0.5, kappa=0.5, theta0=0.0)
    state = initial_uniform(Grid1D(256), params)
    out = step(state, params, t_target=10.0, rtol=1e-10, atol=1e-12)
    ref = uniform_shear(params, 10.0)
    assert np.max(np.abs(out.v - out.grid.x)) < 1e-6
    assert np.max(np.abs(out.theta - ref.theta_s)) < 1e-6
    assert np.max(np.abs(out.strain_rate() - 1.0)) < 1e-6


def test_uniform_shear_tracking_adiabatic():
    params = MaterialParams(n=0.05, alpha=0.5, kappa=0.0, theta0=0.0)
    state = initial_uniform(Grid1D(256), params)
    out = step(state, params, t_target=10.0, rtol=1e-10, atol=1e-12)
    ref = uniform_shear(params, 10.0)
    assert np.max(np.abs(out.theta - ref.theta_s)) < 1e-6
    assert np.max(np.abs(out.v - out.grid.x)) < 1e-6


def test_step_argument_validation():
    params = MaterialParams(n=0.05, alpha=0.5, kappa=0.0)
    state = initial_uniform(Grid1D(32), params)
    with pytest.raises(ParameterError):
        step(state, params)
    with pytest.raises(ParameterError):
        step(state, params, dt=1.0, t_target=2.0)
    with pytest.raises(ParameterError):
        step(state, params, t_target=-1.0)


def test_stress_flux_vanishes_at_walls():
    # sigma_x(0) = sigma_x(1) = 0 within discretization error
    params = MaterialParams(n=0.05, alpha=0.5, kappa=0.5, theta0=0.0)
    state = initial_gaussian_bump(Grid1D(256), params, amplitude=0.05)
    out = step(state, params, t_target=1.0, rtol=1e-10, atol=1e-12)
    sigma = out.stress(params)
    h = out.grid.h
    left = (-3 * sigma[0] + 4 * sigma[1] - sigma[2]) / (2 * h)
    right = (3 * sigma[-1] - 4 * sigma[-2] + sigma[-3]) / (2 * h)
    scale = np.max(np.abs(np.gradient(sigma, h)))
    assert abs(left) < max(1e-8, 1e-3 * scale)
    assert abs(right) < max(1e-8, 1e-3 * scale)


def _manufactured(params, kappa):
    # v* = x + a sin(pi x) e^(-t/2), theta* = theta0 + b cos(pi x)(1 + t/4):
    # satisfies the velocity and flux boundary conditions exactly
    a, b = 0.02, 0.05
    alpha, n = params.alpha, params.n

    def v_exact(x, t):
        return x + a * np.sin(np.pi * x) * math.exp(-t / 2.0)

    def theta_exact(x, t):
        return params.theta0 + b * np.cos(np.pi * x) * (1.0 + t / 4.0)

    def fields(x, t):
        g = math.exp(-t / 2.0)
        h = 1.0 + t / 4.0
        u = 1.0 + a * np.pi * np.cos(np.pi * x) * g
        ux = -a * np.pi ** 2 * np.sin(np.pi * x) * g
        th = params.theta0 + b * np.cos(np.pi * x) * h
        thx = -b * np.pi * np.sin(np.pi * x) * h
        thxx = -b * np.pi ** 2 * np.cos(np.pi * x) * h
        sigma = np.exp(-alpha * th) * u ** n
        sigmax = sigma * (-alpha * thx + n * ux / u)
        return u, th, thx, thxx, sigma, sigmax, g, h

    def sv(x, t):
        u, th, thx, thxx, sigma, sigmax, g, h = fields(x, t)
        vt = -0.5 * a * np.sin(np.pi * x) * g
        return vt - sigmax

    def st(x, t):
        u, th, thx, thxx, sigma, sigmax, g, h = fields(x, t)
        tht = 0.25 * b * np.cos(np.pi * x)
        return tht - kappa * thxx - sigma * u

    return v_exact, theta_exact, (sv, st)


def test_manufactured_solution_second_order():
    kappa = 0.5
    params = MaterialParams(n=0.1, alpha=0.5, kappa=kappa, theta0=0.0)
    v_exact, theta_exact, sources = _manufactured(params, kappa)
    errs = []
    Ns = [32, 64, 128]
    for N in Ns:
        g = Grid1D(N)
        state = FieldState(g, 0.0, v_exact(g.x, 0.0), theta_exact(g.x, 0.0))
        out = step(state, params, t_target=0.5,
                   rtol=1e-11, atol=1e-13, sources=sources)
        err = max(np.max(np.abs(out.v - v_exact(g.x, 0.5))),
                  np.max(np.abs(out.theta - theta_exact(g.x, 0.5))))
        errs.append(err)
    slope = np.polyfit(np.log(Ns), np.log(errs), 1)[0]
    assert slope == pytest.approx(-2.0, abs=0.35)


def test_zero_amplitude_bump_stays_uniform():
    config = SimConfig(n=0.05, alpha=0.5, kappa=0.5, theta0=0.0, N=64,
                       t_end=2.0, frames=9, amplitude=0.0)
    result = run(config)
    assert np.all(result.inhomogeneity < 1e-12)
    assert np.all(np.abs(result.mode1_u) < 1e-10)
    assert np.all(np.abs(result.mode1_theta) < 1e-10)


def test_config_helpers(tmp_path):
    with pytest.raises(ParameterError):
        SimConfig.from_dict({"bogus": 1})
    with pytest.raises(ParameterError):
        SimConfig(init="from-file").initial_state()
    with pytest.raises(ParameterError):
        SimConfig(init="nope").initial_state()
    # from-file roundtrip
    g = Grid1D(32)
    path = tmp_path / "init.npz"
    np.savez(path, v=g.x, theta=np.full(g.x.size, 2.0))
    config = SimConfig(N=32, init="from-file", init_path=str(path), theta0=2.0,
                       t_end=1.0, frames=3)
    st = config.initial_state()
    assert np.allclose(st.theta, 2.0)
    # seeded noise is reproducible
    c1 = SimConfig(N=32, noise_amp=1e-3, seed=42).initial_state()
    c2 = SimConfig(N=32, noise_amp=1e-3, seed=42).initial_state()
    assert np.array_equal(c1.theta, c2.theta)


@pytest.mark.parametrize("bad", [{"frames": 1}, {"frames": 0}, {"rtol": 0.0},
                                 {"rtol": -1.0}, {"rtol": float("nan")}, {"atol": -1.0}])
def test_config_rejects_bad_frames_and_tolerances(bad):
    with pytest.raises(ParameterError, match=next(iter(bad))):
        SimConfig(N=32, t_end=1.0, **bad)
    with pytest.raises(ParameterError):
        SimConfig.from_dict({"N": 32, "t_end": 1.0, **bad})


SPAN_PROBE = """
from shearlab import (Grid1D, MaterialParams, ParameterError, SimConfig, initial_uniform, run,
                      step)
from shearlab.pdesim import MIN_SPAN
params = MaterialParams(n=0.05, alpha=0.5, kappa=0.5)
state = initial_uniform(Grid1D(16), params)
for call in (lambda: SimConfig(N=16, t_end=1e-152, frames=2),
             lambda: SimConfig.from_dict({"t_end": 0.0}),
             lambda: step(state, params, dt=1e-152),
             lambda: step(state, params, t_target=MIN_SPAN / 2)):
    try:
        call()
    except ParameterError as exc:
        print(exc)
    else:
        raise SystemExit("a span below MIN_SPAN was accepted")
print(step(state, params, dt=MIN_SPAN).t, run(SimConfig(N=16, t_end=MIN_SPAN, frames=3)).times[-1])
"""


def test_spans_below_the_floor_are_rejected():
    # in a subprocess: SciPy's LSODA never returns on a span from t = 0 below
    # about 1e-151, so a regression fails here rather than hangs the suite
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(__file__).resolve().parents[1] / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", SPAN_PROBE],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[:4] == ["t_end must be >= 1e-100, got 1e-152", "t_end must be >= 1e-100, got 0.0",
                         "time span must be >= 1e-100, got 1e-152",
                         "time span must be >= 1e-100, got 5e-101"]
    assert lines[4] == "1e-100 1e-100"


@pytest.mark.parametrize("t_end", [5e-5, 1e-4, 5e-4])
def test_log_frames_stay_inside_short_horizons(t_end):
    times = run(SimConfig(N=32, t_end=t_end, frames=4, log_frames=True)).times
    assert times[0] == 0.0 and times[-1] == t_end
    assert np.all(np.diff(times) > 0.0)


@pytest.mark.parametrize("t_end", [1e-3, 1.0, 500.0])
def test_log_frames_from_t_end_1e_3_start_at_1e_4_or_1e_5_t_end(t_end):
    times = run(SimConfig(N=32, t_end=t_end, frames=4, log_frames=True)).times
    assert np.array_equal(times[1:], np.geomspace(max(t_end * 1e-5, 1e-4), t_end, 3))


def test_log_frames_with_two_frames_end_at_t_end():
    times = run(SimConfig(N=32, t_end=1.0, frames=2, log_frames=True)).times
    assert times.tolist() == [0.0, 1.0]


def test_config_accepts_edge_frames_and_tolerances():
    result = run(SimConfig(N=32, t_end=1.0, frames=2, atol=0.0))
    assert result.times.tolist() == [0.0, 1.0]


def test_small_amplitude_late_time_energy_monotone():
    # discrete analogue of the certified weighted-energy decay after T; kappa
    # is chosen so T ~ 23 while the perturbation is still far above the
    # integrator noise floor there, making the monotonicity check meaningful
    config = SimConfig(n=0.05, alpha=0.5, kappa=2.0, theta0=0.0, N=128,
                       t_end=60.0, frames=121, amplitude=1e-3, width=0.1,
                       rtol=1e-10, atol=1e-14)
    params = config.material()
    cert = energy_certificate(params)
    assert 0.0 < cert.T < 40.0
    result = run(config)
    after = result.times >= cert.T
    E = result.energy[after]
    assert E[0] > 1e-12          # signal, not solver drift
    slack = 1e-9 * result.energy.max()
    assert np.all(np.diff(E) <= slack)


def test_tracks_exact_localizing_solution():
    # truncated localizing data on [0,1], re-centered, with Dirichlet v taken
    # from the exact solution: the interior tracks the analytic fields
    n, alpha, theta0, lam, sigma0 = 0.1, 0.5, 10.0, 0.1, 1.88
    p = PlanarParams(n=n, alpha=alpha, nu=lam)
    prof = reconstruct(reparametrize(shoot_heteroclinic(p), sigma0))
    sol = LocalizedSolution(profile=prof, theta0=theta0)

    # antiderivative of U on a fine grid (odd in xi)
    xi_fine = np.linspace(0.0, 0.5, 20001)
    W_half = cumulative_trapezoid(prof(xi_fine)[0], xi_fine, initial=0.0)

    def W(xi):
        return np.sign(xi) * np.interp(np.abs(xi), xi_fine, W_half)

    rl = math.sqrt(lam)

    def v_exact(x, t):
        phi = sol.phi(t)
        return (W(rl * (x - 0.5) * phi) - W(-0.5 * rl)) / rl

    g = Grid1D(256)
    v0 = v_exact(g.x, 0.0)
    theta0_arr = sol.evaluate(g.x - 0.5, 0.0)[2]
    state = FieldState(g, 0.0, v0, theta0_arr)
    bc_v = (lambda t: float(v_exact(0.0, t)), lambda t: float(v_exact(1.0, t)))
    t_end = 5.0
    t, v, theta = _solve(state, sol.params, [t_end], rtol=1e-10, atol=1e-12, bc_v=bc_v)
    out = FieldState(g, float(t[-1]), v[-1], theta[-1])

    interior = (g.x >= 1.0 / 3.0) & (g.x <= 2.0 / 3.0)
    u_ref, sigma_ref, theta_ref = sol.evaluate(g.x - 0.5, t_end)
    assert np.max(np.abs(out.strain_rate()[interior] - u_ref[interior])) < 5e-5
    assert np.max(np.abs(out.theta[interior] - theta_ref[interior])) < 5e-5
    assert np.max(np.abs(out.v[interior] - v_exact(g.x, t_end)[interior])) < 5e-5
