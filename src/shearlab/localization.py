"""Exact space-time localizing solutions of the adiabatic shear system.

A profile triple (U, Sigma, Theta) with similarity parameter nu = lam and the
time amplification phi(t) = (alpha t / c0 + 1)^(lam/alpha) assemble into an
exact solution of u_t = sigma_xx, theta_t = sigma u, sigma = e^(-alpha theta) u^n:

    u(x,t)     = phi * U(sqrt(lam) x phi),
    sigma(x,t) = sigma_s(t) / phi * Sigma(sqrt(lam) x phi),
    theta(x,t) = (1 + lam (n+1)/alpha) theta_s(t) - lam (n+1)/alpha * theta0
                 + Theta(sqrt(lam) x phi).

The level sets of xi(x,t) = sqrt(lam) x phi(t) contract toward x = 0, so the
strain rate concentrates into a narrowing band while its peak grows like phi.
Verification is independent: 4th-order finite differences of the evaluated
fields on space-time grids, with Richardson control of the scheme error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, RangeError
from .material import MaterialParams, ScalingParams, power_law_stress, uniform_shear
from .profile import _d4

__all__ = [
    "LocalizedSolution",
    "SpaceTimeResidual",
    "BandDiagnostics",
    "pde_residual",
    "residual_convergence",
    "band_diagnostics",
]


@dataclass(frozen=True)
class LocalizedSolution:
    """An exact localizing solution: material + scaling + matching profile.

    The model must be adiabatic (kappa = 0: the focusing ansatz only exists
    there, so a nonzero kappa is a constructor error) and the profile's
    similarity parameter must equal the localization rate lam.
    """

    params: MaterialParams
    scaling: ScalingParams
    profile: object            # Profile or any evaluator with .nu
    outer_window_factor: float = 1e8

    def __post_init__(self):
        if self.params.kappa != 0.0:
            raise ParameterError(
                f"localizing solutions require kappa = 0, got {self.params.kappa}")
        nu = getattr(self.profile, "nu", None)
        if nu is None or not math.isclose(nu, self.scaling.lam, rel_tol=1e-12):
            raise ParameterError(
                f"profile similarity parameter {nu} must equal lam = {self.scaling.lam}")

    def phi(self, t):
        """Time amplification (alpha t / c0 + 1)^(lam/alpha), evaluated in log space."""
        t = np.asarray(t, dtype=float)
        out = np.exp(self.scaling.lam / self.params.alpha
                     * np.log1p(self.params.alpha * t * np.exp(-self.params.log_c0)))
        return float(out) if out.ndim == 0 else out

    def evaluate(self, x, t):
        """(u, sigma, theta) at position(s) x and time(s) t >= 0; even in x.

        x and t broadcast against each other.  Raises RangeError when the
        similarity variable exceeds the profile's resolved range by more than
        ``outer_window_factor`` (the asymptotic forms are used in between,
        with the extrapolation implied by xi > profile.xi_max).
        """
        x = np.asarray(x, dtype=float)
        t = np.asarray(t, dtype=float)
        if np.any(t < 0.0):
            raise ParameterError("t must be >= 0")
        lam = self.scaling.lam
        phi = self.phi(t)
        xi = np.sqrt(lam) * x * phi
        xi_cap = getattr(self.profile, "xi_max", np.inf) * self.outer_window_factor
        if np.any(np.abs(xi) > xi_cap):
            raise RangeError(
                f"similarity variable {np.max(np.abs(xi)):.3e} beyond the outer "
                f"validity window ({xi_cap:.3e})")
        U, Sigma, Theta = self.profile(xi)

        base = uniform_shear(self.params, t)
        na = lam * (self.params.n + 1.0) / self.params.alpha
        u = phi * U
        sigma = base.sigma_s / phi * Sigma
        theta = (1.0 + na) * base.theta_s - na * self.params.theta0 + Theta
        return u, sigma, theta


@dataclass(frozen=True)
class SpaceTimeResidual:
    """Residual norms of the adiabatic system on one space-time grid."""

    sup: tuple            # (momentum, heating, constitutive)
    l2: tuple
    fd_error_estimate: float
    at_interpolation_floor: bool
    nx: int
    nt: int

    @property
    def sup_total(self) -> float:
        return max(self.sup)


def pde_residual(sol: LocalizedSolution, x, t) -> SpaceTimeResidual:
    """Evaluate the solution on the grid and difference it against the PDE.

    x and t must be uniform 1-D grids.  Residuals are u_t - sigma_xx,
    theta_t - sigma u and sigma - e^(-alpha theta) u^n, reported on the
    interior where the 4th-order stencils (and their stride-2 Richardson
    companions) fit.
    """
    x = np.asarray(x, dtype=float)
    t = np.asarray(t, dtype=float)
    for g, name in ((x, "x"), (t, "t")):
        if g.size < 9 or not np.allclose(np.diff(g), g[1] - g[0], rtol=1e-9, atol=1e-15):
            raise ParameterError(f"{name} grid must be uniform with >= 9 points")
    hx = x[1] - x[0]
    ht = t[1] - t[0]
    X = x[:, None]
    T = t[None, :]
    u, sigma, theta = sol.evaluate(X, T)

    du_dt = _d4(u, ht, axis=1)
    dth_dt = _d4(theta, ht, axis=1)
    dsig_dx = _d4(sigma, hx, axis=0)
    d2sig_dx2 = _d4(dsig_dx, hx, axis=0)

    r1 = du_dt - d2sig_dx2
    r2 = dth_dt - sigma * u
    r3 = sigma - power_law_stress(sol.params.alpha, sol.params.n, theta, u)

    # stride-2 Richardson estimate of the differentiation error
    u2, sigma2, theta2 = u[::2, ::2], sigma[::2, ::2], theta[::2, ::2]
    du_dt2 = _d4(u2, 2 * ht, axis=1)
    dsig_dx2c = _d4(_d4(sigma2, 2 * hx, axis=0), 2 * hx, axis=0)
    est1 = np.abs(du_dt2 - du_dt[::2, ::2]) / 15.0
    est2 = np.abs(dsig_dx2c - d2sig_dx2[::2, ::2]) / 15.0
    fd_err = float(max(np.nanmax(est1[2:-2, 2:-2]), np.nanmax(est2[2:-2, 2:-2])))

    interior = (slice(4, -4), slice(4, -4))
    res = (r1[interior], r2[interior], r3[interior])
    sup = tuple(float(np.max(np.abs(r))) for r in res)
    l2 = tuple(float(np.sqrt(np.mean(r * r))) for r in res)
    return SpaceTimeResidual(sup=sup, l2=l2, fd_error_estimate=fd_err,
                             at_interpolation_floor=fd_err < max(sup[0], sup[1]) / 3.0,
                             nx=x.size, nt=t.size)


def residual_convergence(sol: LocalizedSolution, x_span=(-5.0, 5.0), t_span=(0.0, 10.0),
                         nx0: int = 33, nt0: int = 17, levels: int = 4):
    """Sup residuals under grid refinement and the fitted convergence order.

    Doubles both grids per level.  The order is fitted from consecutive
    levels whose residual still sits above the interpolation floor.
    """
    reports = []
    for lev in range(levels):
        nx = (nx0 - 1) * 2 ** lev + 1
        nt = (nt0 - 1) * 2 ** lev + 1
        x = np.linspace(*x_span, nx)
        t = np.linspace(*t_span, nt)
        reports.append(pde_residual(sol, x, t))
    sups = np.array([max(r.sup[0], r.sup[1]) for r in reports])
    orders = np.log2(sups[:-1] / sups[1:])
    valid = [o for o, ra, rb in zip(orders, reports[:-1], reports[1:])
             if not (ra.at_interpolation_floor or rb.at_interpolation_floor)]
    order = float(np.mean(valid)) if valid else math.nan
    return reports, orders, order


@dataclass(frozen=True)
class BandDiagnostics:
    """Per-time band measurements: peak strain rate, half width, temperature excess."""

    t: np.ndarray
    peak_u: np.ndarray
    halfwidth: np.ndarray
    theta_excess: np.ndarray


def band_diagnostics(sol: LocalizedSolution, t_grid) -> BandDiagnostics:
    """peak_u = u(0,t); halfwidth solves u(x,t) = peak/2; theta_excess = theta(0,t) - theta_s(t).

    Since u = phi U(sqrt(lam) x phi), the half width is xi_half / (sqrt(lam) phi(t))
    with xi_half the root of U(xi) = U(0)/2, found once by bisection on the profile.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if np.any(np.diff(t_grid) <= 0) or np.any(t_grid < 0):
        raise ParameterError("t grid must be positive and increasing")
    half = 0.5 * sol.profile(0.0)[0]
    # U decays like 1/xi, so doubling from xi = 1 brackets the root
    hi = 1.0
    while sol.profile(hi)[0] > half:
        hi *= 2.0
    lo = 0.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break   # lo and hi are adjacent floats: no later step can move them
        if sol.profile(mid)[0] > half:
            lo = mid
        else:
            hi = mid
    xi_half = 0.5 * (lo + hi)
    peaks, _, theta0 = sol.evaluate(0.0, t_grid)
    widths = xi_half / (math.sqrt(sol.scaling.lam) * sol.phi(t_grid))
    return BandDiagnostics(t=t_grid, peak_u=peaks, halfwidth=widths,
                           theta_excess=theta0 - uniform_shear(sol.params, t_grid).theta_s)
