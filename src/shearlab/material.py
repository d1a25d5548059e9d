"""Constitutive parameters, uniform shearing base states, and shared transforms.

The base flow is simple shear between plates with an exponentially
temperature-softening viscosity, sigma = exp(-alpha*theta) * u^n.  Everything
downstream (mode analysis, orbit construction, localized solutions, direct
simulation) is expressed relative to the uniform shearing solution

    theta_s(t) = (1/alpha) log(alpha*t + c0),   sigma_s(t) = 1/(alpha*t + c0),

with c0 = exp(alpha*theta0); ``uniform_shear`` evaluates it at a scalar or an
array of t.  Closed forms are evaluated in log space so that large t or large
alpha*theta0 cannot overflow.  The simulator's settings, the least time span and the
residual grids and their halves x >= 0 live here too, for the CLI without the solvers,
and so does the energy weight A, which the simulator reads without the stability analysis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, EmptyOverlapError

__all__ = [
    "MaterialParams",
    "UniformShearState",
    "GridTriple",
    "uniform_shear",
    "tau_of_t",
    "t_of_tau",
    "constitutive_stress",
    "rescale_triple",
]

# exp() argument beyond which float64 overflows
_EXP_MAX = 709.0
# the energy certificate's weights are the least that meet their inequalities, times this
_HEADROOM = 1.1
# the shortest time span the simulator gives LSODA; SciPy's LSODA never returns on a
# span from t = 0 below about 1e-151, so spans below this floor, far above that, are
# rejected
MIN_SPAN = 1e-100
# the fewest grid points a residual grid of a localizing solution takes: the 4th-order
# stencils need 9, and in x the stride-2 sigma_xx estimate, a stencil of a stencil, 17
MIN_X_POINTS, MIN_T_POINTS = 17, 9


@dataclass(frozen=True)
class MaterialParams:
    """Constitutive constants of the shear flow model.

    n      -- strain-rate sensitivity (>= 0; n = 0 is the rate-insensitive case,
              admitted here and in the linear analysis only)
    alpha  -- thermal-softening coefficient (> 0)
    kappa  -- thermal diffusivity (>= 0)
    theta0 -- initial base temperature
    """

    n: float = 0.1
    alpha: float = 0.5
    kappa: float = 0.0
    theta0: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and self.alpha > 0.0):
            raise ParameterError(f"alpha must be finite and > 0, got {self.alpha}")
        if not (math.isfinite(self.kappa) and self.kappa >= 0.0):
            raise ParameterError(f"kappa must be finite and >= 0, got {self.kappa}")
        if not (math.isfinite(self.n) and self.n >= 0.0):
            raise ParameterError(f"n must be finite and >= 0, got {self.n}")
        if not math.isfinite(self.theta0):
            raise ParameterError(f"theta0 must be finite, got {self.theta0}")

    @property
    def log_c0(self) -> float:
        return self.alpha * self.theta0

    @property
    def c0(self) -> float:
        """exp(alpha*theta0); always recomputed, never stored independently."""
        return float(np.exp(self.log_c0))


@dataclass
class SimSettings:
    """The settings of a direct simulation, with their defaults and checks;
    ``pdesim.SimConfig`` adds how to build the initial state from them."""

    n: float = 0.05
    alpha: float = 0.5
    kappa: float = 0.5
    theta0: float = -4.0
    N: int = 512
    t_end: float = 500.0              # >= MIN_SPAN
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
        if not self.t_end >= MIN_SPAN:
            raise ParameterError(f"t_end must be >= {MIN_SPAN:g}, got {self.t_end}")
        if self.frames < 2:
            raise ParameterError(f"frames must be >= 2, got {self.frames}")
        if not self.rtol > 0.0:
            raise ParameterError(f"rtol must be > 0, got {self.rtol}")
        if not self.atol >= 0.0:
            raise ParameterError(f"atol must be >= 0, got {self.atol}")

    def material(self) -> MaterialParams:
        return MaterialParams(n=self.n, alpha=self.alpha, kappa=self.kappa,
                              theta0=self.theta0)


@dataclass(frozen=True)
class UniformShearState:
    """Base temperature and stress of the uniform shearing solution at time(s) t."""

    t: float | np.ndarray
    theta_s: float | np.ndarray
    sigma_s: float | np.ndarray


def uniform_shear(params: MaterialParams, t) -> UniformShearState:
    """Uniform shearing base state (theta_s, sigma_s) at time(s) t >= 0.

    Evaluated as theta_s = (1/alpha) * logaddexp(log(alpha*t), alpha*theta0),
    which is exact at t = 0 and overflow-safe for large t.  Accepts a scalar
    (the fields are floats) or an array (the fields are arrays of its shape).
    """
    t = np.asarray(t, dtype=float)
    if np.any(t < 0.0):
        raise ParameterError(f"t must be >= 0, got {t[t < 0.0].min()}")
    a = params.alpha
    with np.errstate(divide="ignore"):  # log(0) at t = 0 feeds logaddexp(-inf, .)
        log_at_c0 = np.logaddexp(np.log(a * t), params.log_c0)
    theta_s = log_at_c0 / a
    sigma_s = np.exp(-log_at_c0)
    if t.ndim == 0:
        return UniformShearState(t=float(t), theta_s=float(theta_s), sigma_s=float(sigma_s))
    return UniformShearState(t=t, theta_s=theta_s, sigma_s=sigma_s)


def tau_of_t(params: MaterialParams, t):
    """Rescaled time tau(t) = (1/alpha) log((c0 + alpha t)/c0); tau(0) = 0.

    tau is the integral of sigma_s and equals theta_s(t) - theta_s(0).
    Accepts scalars or arrays.
    """
    t = np.asarray(t, dtype=float)
    if np.any(t < 0.0):
        raise ParameterError("t must be >= 0")
    out = np.log1p(params.alpha * t * np.exp(-params.log_c0)) / params.alpha
    return float(out) if out.ndim == 0 else out


def t_of_tau(params: MaterialParams, tau):
    """Inverse of tau_of_t: t = (c0/alpha)(exp(alpha*tau) - 1).

    Raises OverflowError when alpha*tau + alpha*theta0 exceeds the float64
    exponent range, signalling the caller to shorten the horizon.
    """
    tau = np.asarray(tau, dtype=float)
    if np.any(tau < 0.0):
        raise ParameterError("tau must be >= 0")
    if np.any(params.alpha * tau + params.log_c0 > _EXP_MAX):
        raise OverflowError("alpha*tau exceeds the floating-point exponent range")
    out = np.exp(params.log_c0) * np.expm1(params.alpha * tau) / params.alpha
    return float(out) if out.ndim == 0 else out


def half_line(xmax, n):
    """(x, h): the points x >= 0 of n points uniform on [-xmax, xmax], and their step; point
    i is (i - (n-1)/2) h, h = xmax / ((n-1)/2), the last xmax (the one of n <= 2), so the grid,
    x's mirror image, is symmetric in floats and, for n >= 3, never forms 2 xmax."""
    q = (n - 1) / 2
    h = xmax / q if q else 0.0
    x = (np.arange(n // 2, n) - q) * h
    x[-1] = xmax
    return x, h


def energy_weight(n, alpha):
    """The energy certificate's weight on the strain-rate part, the least A with
    A n/(2 Cp) >= (n+1)^2/alpha (Cp = 1/pi^2, the Poincare constant) times the
    headroom; the simulator weights its energy diagnostic by it too.  Formed in
    np.float64 without warnings: an overflow gives inf, for the caller to judge."""
    n, alpha = np.float64(n), np.float64(alpha)
    with np.errstate(all="ignore"):
        return _HEADROOM * 2.0 * (1.0 / math.pi ** 2) * (n + 1.0) ** 2 / (alpha * n)


def power_law_stress(alpha, n, theta, u):
    """exp(-alpha*theta + n*log(u)), unchecked: the caller guards u > 0 or
    handles the nan/-inf that a non-positive u gives."""
    return np.exp(-alpha * theta + n * np.log(u))


def constitutive_stress(params: MaterialParams, theta, u):
    """Stress sigma = exp(-alpha*theta) * u^n for strain rate u > 0.

    For non-integral n a non-positive u has no real power; positive u is
    required for all flows considered.
    """
    theta = np.asarray(theta, dtype=float)
    u = np.asarray(u, dtype=float)
    if np.any(u <= 0.0):
        raise ParameterError("strain rate u must be > 0")
    out = power_law_stress(params.alpha, params.n, theta, u)
    if out.ndim == 0:
        return float(out)
    return out


@dataclass(frozen=True)
class GridTriple:
    """A (U, Sigma, Theta) function triple sampled on a strictly increasing xi grid."""

    xi: np.ndarray
    U: np.ndarray
    Sigma: np.ndarray
    Theta: np.ndarray

    def __post_init__(self):
        if not np.all(np.diff(self.xi) > 0):
            raise ParameterError("xi grid must be strictly increasing")


def rescale_triple(triple, a: float, n: float, alpha: float, evaluator) -> GridTriple:
    """Apply the one-parameter scaling map to a profile triple.

    Returns (a*U(a xi), (1/a)*Sigma(a xi), (n+1)/alpha * log a + Theta(a xi))
    resampled on the part of the original grid whose rescaled image stays
    inside the original domain.  The map sends solutions of the self-similar
    profile system to solutions with amplitude Sigma0/a.

    ``evaluator`` (callable xi -> (U, Sigma, Theta)) is the function that
    ``triple`` samples; it is evaluated at a*xi.
    """
    if a <= 0.0:
        raise ParameterError(f"scale factor must be > 0, got {a}")
    xi = np.asarray(triple.xi, dtype=float)
    lo, hi = xi[0], xi[-1]
    keep = (xi * a >= lo) & (xi * a <= hi)
    if not np.any(keep):
        raise EmptyOverlapError(
            f"rescaled grid [{lo / a:g}, {hi / a:g}] does not overlap [{lo:g}, {hi:g}]")
    xs = xi[keep]
    U, Sigma, Theta = evaluator(a * xs)
    return GridTriple(
        xi=xs,
        U=a * U,
        Sigma=Sigma / a,
        Theta=(n + 1.0) / alpha * np.log(a) + Theta,
    )
