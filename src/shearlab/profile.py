"""Self-similar profile triples (U, Sigma, Theta) built from a heteroclinic orbit.

With eta = log(xi) and (a, b) the orbit states, the profile is

    U(xi)     = (1/xi) (a/b)(log xi),
    Sigma(xi) = xi / a(log xi),
    Theta(xi) = -((n+1)/alpha) log xi + ((n+1)/alpha) log a - (n/alpha) log b,

which solves Sigma' = xi U,  nu((n+1)/alpha + xi Theta') = Sigma U - 1,
Sigma = e^(-alpha Theta) U^n, with Sigma(0) = sigma0 fixed by the orbit
reparametrization.  Because (U, Sigma, Theta) are algebraic in (a, b), the
constitutive relation holds to round-off at every evaluated point; they are
formed from (log a, log b) and eta, as U = e^(log a - log b - eta) and
Sigma = e^(eta - log a), the variables the orbit is interpolated in.  Below the
resolved range the second-order Taylor data at the origin is used; above it,
the orbit read at its last sample, so U ~ 1/xi and Sigma ~ xi there.  The
evaluator is even in xi by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ParameterError, RangeError
from .material import power_law_stress
from .orbit import OrbitPath, PlanarParams

__all__ = [
    "SIGMA0_RANGE",
    "Profile",
    "ResidualReport",
    "EndpointReport",
    "reconstruct",
    "equilibrium_closed_form",
    "scale_invariant_solution",
    "ode_residual",
    "endpoint_report",
]


def _triple_from_ab(p: PlanarParams, eta, la, lb):
    """(U, Sigma, Theta) at xi = e^eta from the orbit state (log a, log b)."""
    na = (p.n + 1.0) / p.alpha
    U = np.exp(la - lb - eta)
    Sigma = np.exp(eta - la)
    Theta = -na * eta + na * la - (p.n / p.alpha) * lb
    return U, Sigma, Theta


# points per block of a profile evaluation: the interpolation gathers eight
# Hermite coefficients per point, and a block's temporaries fit in a core's cache
_BLOCK = 4096
_TAIL_XI = 1e3   # where endpoint_report takes the tail deviations, if below xi_max

# xi scales with sigma0 (Sigma ~ sigma0 near the origin), and the solution's
# fields with sigma0 or 1/sigma0: inside this range the inner extension's xi^2
# and the residual norms' r^2 stay finite
SIGMA0_RANGE = (1e-150, 1e150)
_LOG_MAX = math.log(np.finfo(float).max)   # xi = e^eta overflows above it


@dataclass(frozen=True)
class Profile:
    """The localizing profile of a reparametrized orbit, its one field, with an
    evaluator valid on all of R (even in xi).  A path that is not reparametrized
    raises ParameterError; a sigma0 outside SIGMA0_RANGE, or an eta past log of
    the largest float, where xi = e^eta overflows, raises RangeError."""

    path: OrbitPath

    def __post_init__(self):
        path, sigma0 = self.path, self.path.sigma0
        if sigma0 is None:
            raise ParameterError("path must be reparametrized (sigma0 fixed) first")
        lo, hi = SIGMA0_RANGE
        if not lo <= sigma0 <= hi:
            raise RangeError(f"sigma0 = {sigma0:.3e} is outside [{lo:g}, {hi:g}], "
                             "where the profile and its residuals stay finite")
        if path.eta[-1] > _LOG_MAX:
            raise RangeError(f"the orbit at sigma0 = {sigma0:.3e} reaches eta = "
                             f"{path.eta[-1]:.6g}, past log of the largest float, "
                             f"{_LOG_MAX:.6g}: xi = e^eta overflows")

    @property
    def p(self) -> PlanarParams:
        return self.path.params

    @property
    def sigma0(self) -> float:
        return self.path.sigma0

    @property
    def nu(self) -> float:
        return self.p.nu

    @cached_property
    def U0(self) -> float:
        return self.p.c_nu / self.sigma0

    @cached_property
    def Theta0(self) -> float:
        p = self.p
        return (p.n + 1.0) / p.alpha * math.log(self.U0) - math.log(p.c_nu) / p.alpha

    @cached_property
    def xi(self) -> np.ndarray:
        return np.exp(self.path.eta)

    @cached_property
    def _samples(self):
        path = self.path
        return _triple_from_ab(self.p, path.eta, np.log(path.a), np.log(path.b))

    U = property(lambda self: self._samples[0], doc="U at the samples")
    Sigma = property(lambda self: self._samples[1], doc="Sigma at the samples")
    Theta = property(lambda self: self._samples[2], doc="Theta at the samples")

    @property
    def xi_min(self) -> float:
        """Inner end of the orbit-resolved range; Taylor data below."""
        return float(self.xi[0])

    @property
    def xi_max(self) -> float:
        """Outer end of the orbit-resolved range; the last sample's state above."""
        return float(self.xi[-1])

    def __call__(self, xi):
        """Evaluate (U, Sigma, Theta) at any xi; the extension is even.

        A scalar gives floats, an array gives arrays of its shape.  The
        flattened input goes through in blocks of ``_BLOCK`` points, so the
        interpolation's temporaries stay in cache; each point's value is the
        same as when it is evaluated alone.
        """
        xi = np.abs(np.asarray(xi, dtype=float))
        flat = xi.ravel()
        out = np.empty((3, flat.size))
        for start in range(0, flat.size, _BLOCK):
            block = slice(start, start + _BLOCK)
            self._evaluate(flat[block], *(f[block] for f in out))
        if xi.ndim == 0:
            return tuple(float(f[0]) for f in out)
        return tuple(f.reshape(xi.shape) for f in out)

    def _evaluate(self, xi, U, Sigma, Theta):
        """Write (U, Sigma, Theta) at the points of a 1-D array of xi >= 0 into the
        arrays given."""
        inner = xi < self.xi_min
        orbit = ~inner
        eta = np.log(xi[orbit])
        # past xi_max, and where log(exp(eta)) overshoots by one ulp, the last sample
        la, lb = self.path.log_states_at(np.clip(eta, self.path.eta[0], self.path.eta[-1]))
        U[orbit], Sigma[orbit], Theta[orbit] = _triple_from_ab(self.p, eta, la, lb)
        U[inner] = self.U0
        Sigma[inner] = self.sigma0 + 0.5 * self.U0 * xi[inner] ** 2
        Theta[inner] = self.Theta0

    def xi_at_U(self, level: float) -> float:
        """The xi > 0 where the evaluator's U falls through ``level``, for 0 < level < U0.

        The first sample k where g = log a - log b - eta - log(level) is not positive
        closes the interval; on it g is a cubic in s = eta - eta_i, read from the
        interpolant the evaluator uses, and Newton's method solves it inside a
        shrinking bracket, halving it where a step leaves it, until an iterate
        repeats.  Past xi_max it is the root at the last sample's state; at k = 0, xi_min.
        """
        if not 0.0 < level < self.U0:
            raise ParameterError(f"U takes the level {level!r} nowhere: "
                                 f"it must lie in (0, U0 = {self.U0!r})")
        eta, target = self.path.eta, math.log(level)
        ratio, (la_end, lb_end) = self.path.log_ratio_cubics(), self.path.log_states_at(eta[-1])
        g = np.append(ratio[0] - eta[:-1], la_end - lb_end - eta[-1]) - target
        k = int(np.argmax(g <= 0.0))
        if g[k] > 0.0:
            return math.exp(la_end - lb_end - target)
        if k == 0:
            return self.xi_min
        i = k - 1
        (gi, gk), (eta_i, eta_k) = g[i:k + 1].tolist(), eta[i:k + 1].tolist()
        c0, c1, c2, c3 = ratio[:, i].tolist()
        c0, c1 = c0 - (eta_i + target), c1 - 1.0
        lo, hi = 0.0, eta_k - eta_i
        s, seen = hi * gi / (gi - gk), set()
        while s not in seen:
            seen.add(s)
            f = c0 + s * (c1 + s * (c2 + s * c3))
            lo, hi = (s, hi) if f > 0.0 else (lo, s)
            slope = c1 + s * (2.0 * c2 + 3.0 * s * c3)
            step = s - f / slope if slope else math.nan
            s = step if lo < step < hi else 0.5 * (lo + hi)
        return math.exp(eta_i + s)


def reconstruct(path: OrbitPath) -> Profile:
    """The profile of a reparametrized orbit: ``Profile(path)``."""
    return Profile(path)


def equilibrium_closed_form(sigma0: float, n: float, alpha: float):
    """Closed-form profile of the fully relaxed (nu = 0) system.

    Sigma = sqrt(xi^2 + sigma0^2), U = 1/Sigma, Theta = -((n+1)/alpha) log Sigma;
    the stress-strain-rate product is identically 1.  Returns an evaluator.
    """
    if sigma0 <= 0.0:
        raise ParameterError(f"sigma0 must be > 0, got {sigma0}")

    def evaluate(xi):
        xi = np.asarray(xi, dtype=float)
        Sigma = np.sqrt(xi * xi + sigma0 * sigma0)
        U = 1.0 / Sigma
        Theta = -(n + 1.0) / alpha * np.log(Sigma)
        return U, Sigma, Theta

    return evaluate


def scale_invariant_solution(n: float, alpha: float):
    """The solution fixed by the scaling family: Sigma = xi, U = 1/xi (xi > 0).

    Solves the profile system for every nu but misses the origin data.
    """

    def evaluate(xi):
        xi = np.asarray(xi, dtype=float)
        if np.any(xi <= 0.0):
            raise ParameterError("scale-invariant solution requires xi > 0")
        U = 1.0 / xi
        Sigma = xi.copy() if xi.ndim else float(xi)
        Theta = -(n + 1.0) / alpha * np.log(xi)
        return U, np.asarray(Sigma), Theta

    return evaluate


def _d4(values, h, axis, out=None):
    """4th-order central first derivative along axis 0 or 1, two points shorter at each end."""
    def cut(a, lo, hi=None):
        return a[lo:hi] if axis == 0 else a[:, lo:hi]
    w = 8 * cut(values, 1, -1)
    d = np.subtract(cut(values, 0, -4), cut(w, 0, -2), out=out)
    d += cut(w, 2)
    d -= cut(values, 4)
    return np.divide(d, 12 * h, out=d)


def _is_uniform(g, rtol, atol) -> bool:
    """np.allclose(np.diff(g), g[1] - g[0], rtol=rtol, atol=atol), by its predicate."""
    d, h = np.diff(g), g[1] - g[0]
    return bool(np.all(np.abs(d - h) <= atol + rtol * abs(h) if np.isfinite(h) else d == h))


@dataclass(frozen=True)
class ResidualReport:
    """Sup and L2 norms of the three profile-system equation residuals."""

    sup: tuple          # (eq1, eq2, eq3)
    l2: tuple
    fd_error_estimate: float
    grid_too_coarse: bool


def ode_residual(evaluator, nu: float, n: float, alpha: float, xi) -> ResidualReport:
    """Residual norms of the profile system on the grid xi, by 4th-order differences.

    The grid must be uniform in xi or in log xi (on a log grid derivatives are
    taken in eta = log xi with the exact chain rule).  A Richardson stride-2
    estimate of the differentiation error is attached, and the report flags
    the grid as too coarse when that estimate exceeds the measured residual.
    """
    xi = np.asarray(xi, dtype=float)
    if xi.size < 9:
        raise ParameterError("need at least 9 grid points for the stride-2 estimate")
    # d/dxi = (1/scale) d/dgrid: the chain rule on a log grid, exact division by 1 otherwise
    logs = np.log(xi)
    if _is_uniform(logs, rtol=1e-8, atol=1e-12):
        grid, scale = logs, xi
    elif _is_uniform(xi, rtol=1e-8, atol=1e-12):
        grid, scale = xi, np.ones_like(xi)
    else:
        raise ParameterError("xi grid must be uniform in xi or in log xi")
    h = grid[1] - grid[0]

    U, Sigma, Theta = evaluator(xi)
    dSigma = _d4(Sigma[2:-2], h, 0) / scale[4:-4]
    dTheta = _d4(Theta[2:-2], h, 0) / scale[4:-4]
    # the residuals on the interior, where the stride-2 estimate fits too
    res = (dSigma - xi[4:-4] * U[4:-4],
           nu * ((n + 1.0) / alpha + xi[4:-4] * dTheta) - (Sigma[4:-4] * U[4:-4] - 1.0),
           Sigma[4:-4] - power_law_stress(alpha, n, Theta[4:-4], U[4:-4]))

    # Stride-2 derivatives at the even interior points bound the FD error.
    # (2/3)|d_h - d_2h| is an upper bound in both regimes: ~10x the 4th-order
    # truncation error when the data is smooth, and ~the noise level when the
    # stencil is round-off dominated (the two stencils' noises do not cancel,
    # so pure noise cannot slip through a (d_h - d_2h)/15 comparison).
    h2, scale2 = grid[2] - grid[0], scale[4:-4:2]

    def err(f, df):   # at the even interior points, where df is the stride-1 derivative
        return (2.0 / 3.0) * np.abs(_d4(f[::2], h2, 0) / scale2 - df[::2]) \
            + 2 * np.finfo(float).eps * np.abs(f[4:-4:2]) / (h * scale2)
    fd_err = float(max(err(Sigma, dSigma).max(), (nu * xi[4:-4:2] * err(Theta, dTheta)).max()))

    sup = tuple(float(np.max(np.abs(r))) for r in res)
    l2 = tuple(float(np.sqrt(np.mean(r * r))) for r in res)
    return ResidualReport(sup=sup, l2=l2, fd_error_estimate=fd_err,
                          grid_too_coarse=fd_err > max(max(sup), 1e-300))


@dataclass(frozen=True)
class EndpointReport:
    """Fitted origin behavior and tail deviations of a reconstructed profile."""

    sigma_origin_gap: float       # |Sigma(xi_min) - sigma0|
    product_origin_gap: float     # |U(xi_min) Sigma(xi_min) - c_nu|
    dU0: float                    # fitted one-sided derivatives at 0
    dSigma0: float
    dTheta0: float
    taylor_coeff: float           # fitted xi^2 coefficient of Sigma - sigma0
    taylor_coeff_target: float    # U0 / 2
    tail_xi: float
    tail_sigma_dev: float         # |Sigma/xi - 1|
    tail_u_dev: float             # |xi U - 1|
    tail_theta_dev: float         # |Theta + ((n+1)/alpha) log xi|


def endpoint_report(profile: Profile) -> EndpointReport:
    """Fit the origin Taylor data and measure the large-xi limiting behavior.

    Origin fits use the orbit-resolved inner window (the Taylor extension
    itself is excluded: the fits check the reconstruction, not the fallback).
    Derivative fits use a quadratic model on [1e-3, 1e-2]*sigma0, since the
    profile functions are even and a linear-only fit would alias the xi^2
    curvature into the slope.  The tail deviations are taken at min(_TAIL_XI, xi_max).
    """
    s0 = profile.sigma0
    lo, hi = 1e-3 * s0, 1e-2 * s0
    if profile.xi_min > lo:
        raise RangeError(
            f"profile resolved only down to xi = {profile.xi_min:.3e} > {lo:.3e}; "
            "shoot with a smaller tol")
    if profile.xi_max < 10.0 * s0:
        raise RangeError(
            f"profile resolved only up to xi = {profile.xi_max:.3e}; "
            "tail fits need xi >= 10 sigma0")

    def fit(A, y):
        # LAPACK fails on a non-finite design matrix or data, as a large sigma0 makes them
        if not (np.isfinite(A).all() and np.isfinite(y).all()):
            raise RangeError(f"endpoint fits overflow at sigma0 = {s0:.3e}")
        return np.linalg.lstsq(A, y, rcond=None)[0]

    xs = np.geomspace(lo, hi, 41)
    U, Sigma, Theta = profile(xs)

    def quad_fit_slope(y):
        # c0 + c1 xi + c2 xi^2; return c1
        with np.errstate(over="ignore"):
            A = np.vstack([np.ones_like(xs), xs, xs * xs]).T
        return float(fit(A, y)[1])

    dU0 = quad_fit_slope(U)
    dSigma0 = quad_fit_slope(Sigma)
    dTheta0 = quad_fit_slope(Theta)

    # xi^2 coefficient over a wider window where the signal clears round-off
    xq = np.geomspace(3e-3 * s0, 3e-2 * s0, 41)
    _, Sq, _ = profile(xq)
    with np.errstate(over="ignore"):
        Aq = np.vstack([np.ones_like(xq), xq * xq, xq ** 4]).T
    taylor = float(fit(Aq, Sq)[1])

    Umin, Smin, _ = profile(profile.xi_min)
    xt = min(_TAIL_XI, profile.xi_max)
    Ut, St, Tt = profile(xt)
    na = (profile.p.n + 1.0) / profile.p.alpha
    return EndpointReport(
        sigma_origin_gap=abs(Smin - s0),
        product_origin_gap=abs(Umin * Smin - profile.p.c_nu),
        dU0=dU0, dSigma0=dSigma0, dTheta0=dTheta0,
        taylor_coeff=taylor, taylor_coeff_target=0.5 * profile.U0,
        tail_xi=xt,
        tail_sigma_dev=abs(St / xt - 1.0),
        tail_u_dev=abs(xt * Ut - 1.0),
        tail_theta_dev=abs(Tt + na * math.log(xt)),
    )
