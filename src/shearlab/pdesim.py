"""Direct nonlinear solver for the shear-flow initial-boundary-value problem.

Method of lines on a uniform grid over [0, 1] for

    v_t = sigma_x,   theta_t = kappa theta_xx + sigma v_x,
    sigma = e^(-alpha theta) (v_x)^n,

with prescribed plate velocities (Dirichlet v, exact by construction: the
boundary rows are never integrated) and adiabatic plates (Neumann theta via
ghost-node reflection).  The strain rate at nodes uses 2nd-order central
differences with one-sided 2nd-order closures at the walls; sigma is then
pointwise and sigma_x central.  Time integration is LSODA with a banded
Jacobian on an interleaved (v, theta) state, diffusive (kappa > 0) and
adiabatic runs alike: LSODA switches between its non-stiff Adams and stiff
BDF methods by the stiffness it observes, so the kappa h^-2 rate of a
diffusive run needs no separate solver.

Strain-rate positivity is monitored, not enforced: the unstable regime can
genuinely drive u toward 0 away from the band, and aborting with the state
lets an experiment report the localization onset.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, PositivityError, StiffnessError
from .material import MaterialParams, power_law_stress, uniform_shear

__all__ = [
    "Grid1D",
    "FieldState",
    "SimConfig",
    "SimResult",
    "initial_uniform",
    "initial_gaussian_bump",
    "step",
    "run",
]


@dataclass(frozen=True)
class Grid1D:
    """Uniform node grid on [0, 1] with N cells (N + 1 nodes)."""

    N: int

    def __post_init__(self):
        if self.N < 16:
            raise ParameterError(f"N must be >= 16, got {self.N}")

    @property
    def h(self) -> float:
        return 1.0 / self.N

    @property
    def x(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.N + 1)


def _strain_rate(v: np.ndarray, h: float) -> np.ndarray:
    u = np.empty_like(v)
    u[1:-1] = (v[2:] - v[:-2]) / (2.0 * h)
    u[0] = (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * h)
    u[-1] = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * h)
    return u


@dataclass
class FieldState:
    """Discretized (v, theta) state at one time.

    A simulation owns its state exclusively; snapshots handed out by `run`
    are independent copies.
    """

    grid: Grid1D
    t: float
    v: np.ndarray
    theta: np.ndarray

    def strain_rate(self) -> np.ndarray:
        return _strain_rate(self.v, self.grid.h)

    def positive_strain_rate(self) -> np.ndarray:
        """The strain rate; raises PositivityError, with this state attached,
        if any value is <= 0 or not finite."""
        u = self.strain_rate()
        if not (u.min() > 0.0 and np.isfinite(u.max())):
            raise PositivityError(
                f"strain rate lost positivity at t = {self.t:.6g} "
                f"(min u = {u.min():.3e})", state=self)
        return u

    def stress(self, params: MaterialParams) -> np.ndarray:
        return power_law_stress(params.alpha, params.n, self.theta,
                                self.positive_strain_rate())

    def conservation(self):
        """(midpoint integral of u, nodal-trapezoid integral of u).

        The midpoint form telescopes to v(1) - v(0) exactly; the nodal
        trapezoid with the one-sided end stencils is exact only through
        quadratic v and is reported for the O(h^2) check.
        """
        mid = float(np.sum(np.diff(self.v)))
        trap = float(np.trapezoid(self.strain_rate(), dx=self.grid.h))
        return mid, trap

    def copy(self) -> "FieldState":
        return FieldState(self.grid, self.t, self.v.copy(), self.theta.copy())


# --- interleaved packing: z = [th_0, v_1, th_1, ..., v_{N-1}, th_{N-1}, th_N] ---
# keeps the Jacobian banded (half bandwidth 4) for LSODA


def _pack(v: np.ndarray, theta: np.ndarray) -> np.ndarray:
    N = v.size - 1
    z = np.empty(2 * N)
    z[0] = theta[0]
    z[-1] = theta[N]
    z[1:-1:2] = v[1:N]
    z[2:-1:2] = theta[1:N]
    return z


def _unpack(z: np.ndarray, bc0: float, bc1: float):
    N = (z.size) // 2
    v = np.empty(N + 1)
    theta = np.empty(N + 1)
    v[0] = bc0
    v[N] = bc1
    theta[0] = z[0]
    theta[N] = z[-1]
    v[1:N] = z[1:-1:2]
    theta[1:N] = z[2:-1:2]
    return v, theta


def _make_rhs(grid: Grid1D, params: MaterialParams, bc_v=None, sources=None):
    h = grid.h
    x = grid.x
    N = grid.N
    kappa = params.kappa
    alpha = params.alpha
    n = params.n
    bc0 = (lambda t: 0.0) if bc_v is None else bc_v[0]
    bc1 = (lambda t: 1.0) if bc_v is None else bc_v[1]

    def rhs(t, z):
        v, theta = _unpack(z, bc0(t), bc1(t))
        u = _strain_rate(v, h)
        with np.errstate(invalid="ignore", divide="ignore"):
            sigma = power_law_stress(alpha, n, theta, u)
        dv = np.empty(N + 1)
        dv[0] = dv[N] = 0.0
        dv[1:N] = (sigma[2:] - sigma[:-2]) / (2.0 * h)
        lap = np.empty(N + 1)
        lap[1:N] = (theta[2:] - 2.0 * theta[1:N] + theta[:-2]) / h ** 2
        lap[0] = 2.0 * (theta[1] - theta[0]) / h ** 2        # ghost: th[-1] = th[1]
        lap[N] = 2.0 * (theta[N - 1] - theta[N]) / h ** 2
        dtheta = kappa * lap + sigma * u
        if sources is not None:
            sv, st = sources
            dv[1:N] += sv(x[1:N], t)
            dtheta += st(x, t)
        return _pack(dv, dtheta)

    return rhs, bc0, bc1


def solve_ivp(*args, **kwargs):
    """``scipy.integrate.solve_ivp``, imported on the first call, so that
    importing shearlab (and running any subcommand but ``simulate``) does not
    load SciPy."""
    from scipy.integrate import solve_ivp as scipy_solve_ivp
    return scipy_solve_ivp(*args, **kwargs)


def _integrate(state: FieldState, params: MaterialParams, t_eval,
               rtol=1e-8, atol=1e-8, bc_v=None, sources=None):
    state.positive_strain_rate()
    rhs, bc0, bc1 = _make_rhs(state.grid, params, bc_v, sources)
    z0 = _pack(state.v, state.theta)
    t_eval = np.asarray(t_eval, dtype=float)
    t_end = float(t_eval[-1])
    sol = solve_ivp(rhs, (state.t, t_end), z0, method="LSODA",
                    rtol=rtol, atol=atol, t_eval=t_eval, lband=4, uband=4)
    if sol.status != 0:
        raise StiffnessError(f"time integration failed (LSODA): {sol.message}")
    states = []
    for i, t in enumerate(sol.t):
        v, theta = _unpack(sol.y[:, i], bc0(t), bc1(t))
        states.append(FieldState(state.grid, float(t), v, theta))
    return states


def step(state: FieldState, params: MaterialParams, dt: float | None = None,
         t_target: float | None = None, rtol: float = 1e-8, atol: float = 1e-8,
         bc_v=None, sources=None) -> FieldState:
    """Advance the state by dt (or to t_target) and verify its invariants.

    Raises PositivityError (with the offending state attached) if the strain
    rate is not positive at the start or the end, and StiffnessError if LSODA
    gives up.
    """
    if (dt is None) == (t_target is None):
        raise ParameterError("give exactly one of dt and t_target")
    t_end = state.t + dt if dt is not None else t_target
    if t_end <= state.t:
        raise ParameterError("target time must exceed the state time")
    out = _integrate(state, params, [t_end], rtol, atol, bc_v, sources)[-1]
    out.positive_strain_rate()
    mid, _ = out.conservation()
    drift = abs(mid - (out.v[-1] - out.v[0]))
    if drift > 1e-10:
        raise ParameterError(f"conservation drift {drift:.2e}; integrator state corrupt")
    return out


def initial_uniform(grid: Grid1D, params: MaterialParams) -> FieldState:
    """Uniform shear initial data: v = x, theta = theta0."""
    return FieldState(grid, 0.0, grid.x.copy(),
                      np.full(grid.N + 1, float(params.theta0)))


def initial_gaussian_bump(grid: Grid1D, params: MaterialParams, center: float = 0.5,
                          width: float = 0.1, amplitude: float = 0.1,
                          noise_amp: float = 0.0, seed: int | None = None) -> FieldState:
    """v = x with a Gaussian temperature bump on the uniform base.

    Optional uniform noise (the only randomness in the package) is seeded for
    reproducibility.
    """
    x = grid.x
    theta = params.theta0 + amplitude * np.exp(-((x - center) ** 2) / (2.0 * width ** 2))
    if noise_amp > 0.0:
        rng = np.random.default_rng(seed)
        theta = theta + noise_amp * rng.uniform(-1.0, 1.0, x.size)
    return FieldState(grid, 0.0, x.copy(), theta)


@dataclass
class SimConfig:
    """Run configuration; JSON-serializable and reproducible."""

    n: float = 0.05
    alpha: float = 0.5
    kappa: float = 0.5
    theta0: float = -4.0
    N: int = 512
    t_end: float = 500.0
    frames: int = 201
    init: str = "gaussian-bump"       # uniform | gaussian-bump | from-file
    center: float = 0.5
    width: float = 0.1
    amplitude: float = 0.1
    noise_amp: float = 0.0
    seed: int | None = None
    init_path: str | None = None      # for init = from-file: npz with v, theta
    rtol: float = 1e-8
    atol: float = 1e-10
    log_frames: bool = False          # geometric frame spacing (early transient)

    def __post_init__(self):
        if self.frames < 2:
            raise ParameterError(f"frames must be >= 2, got {self.frames}")
        if not self.rtol > 0.0:
            raise ParameterError(f"rtol must be > 0, got {self.rtol}")
        if not self.atol >= 0.0:
            raise ParameterError(f"atol must be >= 0, got {self.atol}")

    @classmethod
    def from_dict(cls, d: dict) -> "SimConfig":
        known = {f for f in cls.__dataclass_fields__}
        bad = set(d) - known
        if bad:
            raise ParameterError(f"unknown config keys: {sorted(bad)}")
        return cls(**d)

    @classmethod
    def from_json(cls, path) -> "SimConfig":
        with open(path) as f:
            return cls.from_dict(json.load(f))

    def material(self) -> MaterialParams:
        return MaterialParams(n=self.n, alpha=self.alpha, kappa=self.kappa,
                              theta0=self.theta0)

    def initial_state(self) -> FieldState:
        grid = Grid1D(self.N)
        params = self.material()
        if self.init == "uniform":
            return initial_uniform(grid, params)
        if self.init == "gaussian-bump":
            return initial_gaussian_bump(grid, params, self.center, self.width,
                                         self.amplitude, self.noise_amp, self.seed)
        if self.init == "from-file":
            if not self.init_path:
                raise ParameterError("init = from-file requires init_path")
            try:
                data = np.load(self.init_path)
                v, theta = (np.asarray(data[k], dtype=float) for k in ("v", "theta"))
            except (OSError, ValueError, KeyError, IndexError) as exc:
                raise ParameterError(f"init_path {self.init_path!r} is not an npz archive "
                                     f"with arrays v and theta: {exc}") from exc
            if v.size != grid.N + 1 or theta.size != grid.N + 1:
                raise ParameterError("initial arrays must have N + 1 nodes")
            return FieldState(grid, 0.0, v, theta)
        raise ParameterError(f"unknown init kind {self.init!r}")


@dataclass
class SimResult:
    """Snapshots plus diagnostics of one run."""

    config: SimConfig
    times: np.ndarray
    snapshots: list
    inhomogeneity: np.ndarray   # max theta - min theta
    max_u: np.ndarray
    mode1_u: np.ndarray
    mode1_theta: np.ndarray
    energy: np.ndarray          # weighted relative-perturbation energy
    energy_weight_A: float


def _mode1_amplitude(x: np.ndarray, f: np.ndarray) -> float:
    g = f - np.trapezoid(f, x)
    return float(2.0 * np.trapezoid(g * np.cos(np.pi * x), x))


def run(config: SimConfig) -> SimResult:
    """Integrate the configured problem and collect the standard diagnostics.

    The energy diagnostic is the weighted relative-perturbation energy
    int (A/2)(u-1)^2 + (1/2)(theta - theta_s)^2 dx with A from the energy
    certificate when kappa > 0 and n > 0 (A = 1 otherwise).
    """
    params = config.material()
    state0 = config.initial_state()
    if config.log_frames:
        # first frame after 0: 1e-5 t_end, at least 1e-4 but at most t_end / 10
        start = min(max(config.t_end * 1e-5, 1e-4), config.t_end / 10)
        interior = np.geomspace(start, config.t_end, config.frames - 1)
        t_eval = np.concatenate([[0.0], interior])
    else:
        t_eval = np.linspace(0.0, config.t_end, config.frames)
    states = _integrate(state0, params, t_eval[1:], config.rtol, config.atol)
    states = [state0] + states

    A = 1.0
    if params.kappa > 0.0 and params.n > 0.0:
        from .stability import energy_certificate
        A = energy_certificate(params).A

    x = state0.grid.x
    times = np.array([s.t for s in states])
    theta_s = uniform_shear(params, times).theta_s
    m = len(states)
    inhom = np.empty(m)
    max_u = np.empty(m)
    m1u = np.empty(m)
    m1t = np.empty(m)
    energy = np.empty(m)
    for i, st in enumerate(states):
        u = st.positive_strain_rate()
        ubar = u - 1.0
        tbar = st.theta - theta_s[i]
        inhom[i] = st.theta.max() - st.theta.min()
        max_u[i] = u.max()
        m1u[i] = _mode1_amplitude(x, u)
        m1t[i] = _mode1_amplitude(x, st.theta)
        energy[i] = float(np.trapezoid(0.5 * A * ubar ** 2 + 0.5 * tbar ** 2, x))
    return SimResult(config=config, times=times,
                     snapshots=states, inhomogeneity=inhom, max_u=max_u,
                     mode1_u=m1u, mode1_theta=m1t, energy=energy,
                     energy_weight_A=A)
