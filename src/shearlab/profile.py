"""Self-similar profile triples (U, Sigma, Theta) built from a heteroclinic orbit.

With eta = log(xi) and (a, b) the orbit states, the profile is

    U(xi)     = (1/xi) (a/b)(log xi),
    Sigma(xi) = xi / a(log xi),
    Theta(xi) = -((n+1)/alpha) log xi + ((n+1)/alpha) log a - (n/alpha) log b,

which solves Sigma' = xi U,  nu((n+1)/alpha + xi Theta') = Sigma U - 1,
Sigma = e^(-alpha Theta) U^n, with Sigma(0) = sigma0 fixed by the orbit
reparametrization.  Because (U, Sigma, Theta) are algebraic in (a, b), the
constitutive relation holds to round-off at every evaluated point.  Below the
resolved range the second-order Taylor data at the origin is used; above it,
the limiting large-xi forms with the endpoint orbit state frozen.  The
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
    "Profile",
    "ResidualReport",
    "EndpointReport",
    "reconstruct",
    "equilibrium_closed_form",
    "scale_invariant_solution",
    "ode_residual",
    "endpoint_report",
]


def _triple_from_ab(p: PlanarParams, xi, a, b):
    na = (p.n + 1.0) / p.alpha
    U = a / b / xi
    Sigma = xi / a
    Theta = -na * np.log(xi) + na * np.log(a) - (p.n / p.alpha) * np.log(b)
    return U, Sigma, Theta


@dataclass(frozen=True)
class Profile:
    """Sampled localizing profile with an evaluator valid on all of R (even in xi).

    Immutable after construction.
    """

    p: PlanarParams
    sigma0: float
    U0: float
    Theta0: float
    xi: np.ndarray
    U: np.ndarray
    Sigma: np.ndarray
    Theta: np.ndarray
    path: OrbitPath

    @property
    def nu(self) -> float:
        return self.p.nu

    @property
    def xi_min(self) -> float:
        """Inner end of the orbit-resolved range; Taylor data below."""
        return float(self.xi[0])

    @property
    def xi_max(self) -> float:
        """Outer end of the orbit-resolved range; limiting forms above."""
        return float(self.xi[-1])

    @cached_property
    def _outer_state(self):
        return float(self.path.a[-1]), float(self.path.b[-1])

    def __call__(self, xi):
        """Evaluate (U, Sigma, Theta) at any xi; the extension is even."""
        xi = np.abs(np.asarray(xi, dtype=float))
        scalar = xi.ndim == 0
        xi = np.atleast_1d(xi)
        U = np.empty_like(xi)
        Sigma = np.empty_like(xi)
        Theta = np.empty_like(xi)

        inner = xi < self.xi_min
        outer = xi > self.xi_max
        mid = ~(inner | outer)

        if np.any(mid):
            # log(exp(eta)) can overshoot the sampled range by one ulp
            eta = np.clip(np.log(xi[mid]), self.path.eta[0], self.path.eta[-1])
            a, b = self.path.states_at(eta)
            U[mid], Sigma[mid], Theta[mid] = _triple_from_ab(self.p, xi[mid], a, b)
        if np.any(inner):
            U[inner] = self.U0
            Sigma[inner] = self.sigma0 + 0.5 * self.U0 * xi[inner] ** 2
            Theta[inner] = self.Theta0
        if np.any(outer):
            a_end, b_end = self._outer_state
            U[outer], Sigma[outer], Theta[outer] = _triple_from_ab(
                self.p, xi[outer], a_end, b_end)
        if scalar:
            return float(U[0]), float(Sigma[0]), float(Theta[0])
        return U, Sigma, Theta


def reconstruct(path: OrbitPath) -> Profile:
    """Convert a reparametrized orbit into its profile triple.

    Samples at xi = e^eta over the path's own grid; endpoint data follow from
    U0 Sigma0 = c_nu and Theta0 = ((n+1)/alpha) log U0 - (1/alpha) log c_nu.
    """
    if path.sigma0 is None:
        raise ParameterError("path must be reparametrized (sigma0 fixed) first")
    p = path.params
    sigma0 = path.sigma0
    U0 = p.c_nu / sigma0
    Theta0 = (p.n + 1.0) / p.alpha * math.log(U0) - math.log(p.c_nu) / p.alpha
    xi = np.exp(path.eta)
    U, Sigma, Theta = _triple_from_ab(p, xi, path.a, path.b)
    return Profile(p=p, sigma0=sigma0, U0=U0, Theta0=Theta0,
                   xi=xi, U=U, Sigma=Sigma, Theta=Theta, path=path)


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


def _d4(values, h, axis):
    """4th-order central first derivative along an axis; NaN at the two points of each edge."""
    v = np.moveaxis(values, axis, 0)
    d = np.full_like(v, np.nan)
    d[2:-2] = (v[:-4] - 8 * v[1:-3] + 8 * v[3:-1] - v[4:]) / (12 * h)
    return np.moveaxis(d, 0, axis)


@dataclass(frozen=True)
class ResidualReport:
    """Sup and L2 norms of the three profile-system equation residuals."""

    sup: tuple          # (eq1, eq2, eq3)
    l2: tuple
    fd_error_estimate: float
    grid_too_coarse: bool
    xi: np.ndarray
    residuals: tuple    # arrays on the interior grid

    @property
    def sup_total(self) -> float:
        return max(self.sup)


def ode_residual(evaluator, nu: float, n: float, alpha: float,
                 xi=None, xi_range=(0.1, 100.0), npoints=5001) -> ResidualReport:
    """Residual norms of the profile system on a grid, by 4th-order differences.

    The default grid is log-uniform (derivatives taken in eta = log xi with
    the exact chain rule); a user grid must be uniform in xi or in log xi.
    A Richardson stride-2 estimate of the differentiation error is attached,
    and the report flags the grid as too coarse when that estimate exceeds
    the measured residual.
    """
    if xi is None:
        xi = np.geomspace(xi_range[0], xi_range[1], npoints)
    xi = np.asarray(xi, dtype=float)
    if xi.size < 9:
        raise ParameterError("need at least 9 grid points for the stride-2 estimate")
    # d/dxi = (1/scale) d/dgrid: the chain rule on a log grid, exact division by 1 otherwise
    logs = np.log(xi)
    if np.allclose(np.diff(logs), logs[1] - logs[0], rtol=1e-8, atol=1e-12):
        grid, scale = logs, xi
    elif np.allclose(np.diff(xi), xi[1] - xi[0], rtol=1e-8, atol=1e-12):
        grid, scale = xi, np.ones_like(xi)
    else:
        raise ParameterError("xi grid must be uniform in xi or in log xi")
    h = grid[1] - grid[0]

    U, Sigma, Theta = evaluator(xi)
    dSigma = _d4(Sigma, h, 0) / scale
    dTheta = _d4(Theta, h, 0) / scale

    r1 = dSigma - xi * U
    r2 = nu * ((n + 1.0) / alpha + xi * dTheta) - (Sigma * U - 1.0)
    r3 = Sigma - power_law_stress(alpha, n, Theta, U)

    # Stride-2 derivatives on the even-indexed subgrid bound the FD error.
    # (2/3)|d_h - d_2h| is an upper bound in both regimes: ~10x the 4th-order
    # truncation error when the data is smooth, and ~the noise level when the
    # stencil is round-off dominated (the two stencils' noises do not cancel,
    # so pure noise cannot slip through a (d_h - d_2h)/15 comparison).
    sub = slice(None, None, 2)
    xi2, Sigma2, Theta2, scale2 = xi[sub], Sigma[sub], Theta[sub], scale[sub]
    h2 = grid[2] - grid[0]
    eps = np.finfo(float).eps
    errS = (2.0 / 3.0) * np.abs(_d4(Sigma2, h2, 0) / scale2 - dSigma[sub]) \
        + 2 * eps * np.abs(Sigma2) / (h * scale2)
    errT = (2.0 / 3.0) * np.abs(_d4(Theta2, h2, 0) / scale2 - dTheta[sub]) \
        + 2 * eps * np.abs(Theta2) / (h * scale2)
    fd_err = float(max(errS[2:-2].max(), (nu * xi2 * errT)[2:-2].max()))

    interior = slice(4, -4)
    res = (r1[interior], r2[interior], r3[interior])
    sup = tuple(float(np.max(np.abs(r))) for r in res)
    l2 = tuple(float(np.sqrt(np.mean(r * r))) for r in res)
    return ResidualReport(sup=sup, l2=l2, fd_error_estimate=fd_err,
                          grid_too_coarse=fd_err > max(max(sup), 1e-300),
                          xi=xi[interior], residuals=res)


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


def endpoint_report(profile: Profile, tail_xi: float = 1e3) -> EndpointReport:
    """Fit the origin Taylor data and measure the large-xi limiting behavior.

    Origin fits use the orbit-resolved inner window (the Taylor extension
    itself is excluded: the fits check the reconstruction, not the fallback).
    Derivative fits use a quadratic model on [1e-3, 1e-2]*sigma0, since the
    profile functions are even and a linear-only fit would alias the xi^2
    curvature into the slope.
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

    xs = np.geomspace(lo, hi, 41)
    U, Sigma, Theta = profile(xs)

    def quad_fit_slope(y):
        # c0 + c1 xi + c2 xi^2; return c1
        A = np.vstack([np.ones_like(xs), xs, xs * xs]).T
        coef, *_ = np.linalg.lstsq(A, y, rcond=None)
        return float(coef[1])

    dU0 = quad_fit_slope(U)
    dSigma0 = quad_fit_slope(Sigma)
    dTheta0 = quad_fit_slope(Theta)

    # xi^2 coefficient over a wider window where the signal clears round-off
    xq = np.geomspace(3e-3 * s0, 3e-2 * s0, 41)
    _, Sq, _ = profile(xq)
    Aq = np.vstack([np.ones_like(xq), xq * xq, xq ** 4]).T
    coefq, *_ = np.linalg.lstsq(Aq, Sq, rcond=None)
    taylor = float(coefq[1])

    Umin, Smin, _ = profile(profile.xi_min)
    xt = min(tail_xi, profile.xi_max)
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
