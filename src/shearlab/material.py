"""Constitutive parameters, uniform shearing base states, and shared transforms.

The base flow is simple shear between plates with an exponentially
temperature-softening viscosity, sigma = exp(-alpha*theta) * u^n.  Everything
downstream (mode analysis, orbit construction, localized solutions, direct
simulation) is expressed relative to the uniform shearing solution

    theta_s(t) = (1/alpha) log(alpha*t + c0),   sigma_s(t) = 1/(alpha*t + c0),

with c0 = exp(alpha*theta0); ``uniform_shear`` evaluates it at a scalar or an
array of t.  Closed forms are evaluated in log space so that large t or large
alpha*theta0 cannot overflow.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, EmptyOverlapError

__all__ = [
    "MaterialParams",
    "UniformShearState",
    "ScalingParams",
    "GridTriple",
    "uniform_shear",
    "tau_of_t",
    "t_of_tau",
    "constitutive_stress",
    "rescale_triple",
]

# exp() argument beyond which float64 overflows
_EXP_MAX = 709.0


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
        if self.alpha <= 0.0:
            raise ParameterError(f"alpha must be > 0, got {self.alpha}")
        if self.kappa < 0.0:
            raise ParameterError(f"kappa must be >= 0, got {self.kappa}")
        if self.n < 0.0:
            raise ParameterError(f"n must be >= 0, got {self.n}")

    @property
    def log_c0(self) -> float:
        return self.alpha * self.theta0

    @property
    def c0(self) -> float:
        """exp(alpha*theta0); always recomputed, never stored independently."""
        return float(np.exp(self.log_c0))


@dataclass(frozen=True)
class UniformShearState:
    """Base temperature and stress of the uniform shearing solution at time(s) t."""

    t: float | np.ndarray
    theta_s: float | np.ndarray
    sigma_s: float | np.ndarray


@dataclass(frozen=True)
class ScalingParams:
    """Similarity scaling of a localizing solution: focusing rate and amplitude.

    lam    -- localization rate (> 0), the time scaling is r(tau) = exp(-lam*tau)
    sigma0 -- stress-profile amplitude at the band center (> 0)
    """

    lam: float
    sigma0: float

    def __post_init__(self):
        if self.lam <= 0.0:
            raise ParameterError(f"lam must be > 0, got {self.lam}")
        if self.sigma0 <= 0.0:
            raise ParameterError(f"sigma0 must be > 0, got {self.sigma0}")


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


def rescale_triple(triple, a: float, n: float, alpha: float,
                   evaluator=None) -> GridTriple:
    """Apply the one-parameter scaling map to a profile triple.

    Returns (a*U(a xi), (1/a)*Sigma(a xi), (n+1)/alpha * log a + Theta(a xi))
    resampled on the part of the original grid whose rescaled image stays
    inside the original domain.  The map sends solutions of the self-similar
    profile system to solutions with amplitude Sigma0/a.

    If ``evaluator`` is given (callable xi -> (U, Sigma, Theta)), it is used to
    evaluate at a*xi exactly; otherwise cubic interpolation of the sampled
    data in log(xi) is used.
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
    if evaluator is not None:
        U, Sigma, Theta = evaluator(a * xs)
    else:
        from scipy.interpolate import CubicSpline
        eta = np.log(xi)
        target = np.log(a * xs)
        U = CubicSpline(eta, triple.U)(target)
        Sigma = CubicSpline(eta, triple.Sigma)(target)
        Theta = CubicSpline(eta, triple.Theta)(target)
    return GridTriple(
        xi=xs,
        U=a * U,
        Sigma=Sigma / a,
        Theta=(n + 1.0) / alpha * np.log(a) + Theta,
    )
