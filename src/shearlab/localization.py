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
from functools import cached_property

import numpy as np

from .errors import ParameterError, RangeError
from .material import MIN_T_POINTS, MIN_X_POINTS, MaterialParams, half_line, uniform_shear
from .profile import Profile, _d4, _is_uniform

__all__ = [
    "LocalizedSolution",
    "SpaceTimeResidual",
    "BandDiagnostics",
    "pde_residual",
    "residual_convergence",
    "band_diagnostics",
]

# evaluate raises RangeError where |xi| exceeds the profile's resolved range
# xi_max by more than this factor; in between it uses the asymptotic forms
OUTER_WINDOW_FACTOR = 1e8


@dataclass(frozen=True)
class LocalizedSolution:
    """An exact localizing solution: a profile and the initial base temperature theta0.

    The profile was shot at (n, alpha, nu) and fixed to amplitude sigma0; the
    solution's lam is nu, and its material is adiabatic (kappa = 0: the focusing
    ansatz only exists there), so every value but theta0 is the profile's.
    """

    profile: Profile
    theta0: float

    @cached_property
    def params(self) -> MaterialParams:
        """The material the solution solves: the profile's n and alpha, kappa = 0, theta0."""
        return MaterialParams(self.profile.p.n, self.profile.p.alpha, 0.0, self.theta0)

    def phi(self, t):
        """Time amplification (alpha t / c0 + 1)^(lam/alpha), evaluated in log space."""
        t = np.asarray(t, dtype=float)
        out = np.exp(self.profile.nu / self.params.alpha
                     * np.log1p(self.params.alpha * t * np.exp(-self.params.log_c0)))
        return float(out) if out.ndim == 0 else out

    def evaluate(self, x, t):
        """(u, sigma, theta) at position(s) x and time(s) t >= 0; even in x.

        x and t broadcast against each other.  Raises RangeError, before the
        profile is called, when the similarity variable exceeds the profile's
        resolved range by more than ``OUTER_WINDOW_FACTOR`` (the asymptotic
        forms are used in between, with the extrapolation implied by
        xi > profile.xi_max); the message names the point of largest |xi|.
        """
        x = np.asarray(x, dtype=float)
        t = np.asarray(t, dtype=float)
        if np.any(t < 0.0):
            raise ParameterError("t must be >= 0")
        lam = self.profile.nu
        phi = self.phi(t)
        xi = np.sqrt(lam) * x * phi
        cap = self.profile.xi_max * OUTER_WINDOW_FACTOR
        if np.any(np.abs(xi) > cap):
            xs, ts, xis = np.broadcast_arrays(np.abs(x), t, np.abs(xi))
            i = np.argmax(xis)
            raise RangeError(f"xmax = {xs.flat[i]:g} reaches xi = {xis.flat[i]:.3e} by "
                             f"t = {ts.flat[i]:g}, beyond the outer validity window "
                             f"({cap:.3e}) of the profile at sigma0 = "
                             f"{self.profile.sigma0:.3e}; raise sigma0 or lower xmax")
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


def _check_grid(g, name, least):
    if g.size < least or not _is_uniform(g, rtol=1e-9, atol=1e-15):
        raise ParameterError(f"{name} grid must be uniform with >= {least} points")


def pde_residual(sol: LocalizedSolution, x, t) -> SpaceTimeResidual:
    """Evaluate the solution on the grid and difference it against the PDE.

    x and t must be uniform 1-D grids of at least ``MIN_X_POINTS`` and ``MIN_T_POINTS``
    points.  Residuals are u_t - sigma_xx, theta_t - sigma u and sigma - e^(-alpha theta)
    u^n, each formed on the interior where the 4th-order stencils (and their stride-2
    Richardson companions) fit, and reduced to its norms before the next is formed.
    """
    x = np.asarray(x, dtype=float)
    t = np.asarray(t, dtype=float)
    _check_grid(x, "x", MIN_X_POINTS)
    _check_grid(t, "t", MIN_T_POINTS)
    return _difference(sol.params, x[1] - x[0], t[1] - t[0], *sol.evaluate(x[:, None], t[None, :]))


@np.errstate(all="ignore")
def _difference(params: MaterialParams, hx, ht, u, sigma, theta, nx=None) -> SpaceTimeResidual:
    """The residual norms of fields (u, sigma, theta) given on a grid of steps hx by ht:
    each stencil formed on the interior points its residual uses, each residual formed and
    reduced in turn, in the two interior-size arrays a and b.  With ``nx``, the fields are
    at the points x >= 0 of nx points symmetric about 0 and the norms the whole grid's, on
    that half (docs/formats.md): 8 or 7 ghost rows x < 0 from the mirror give each row its
    mirror image's parity.  Floating-point warnings are suppressed: a norm that is not
    finite is for the caller to judge."""
    nx, ghosts, once = (nx, 8 - (nx - 1) // 2 % 2, nx % 2) if nx else (len(sigma), 0, len(sigma))
    u, sigma, theta = (np.concatenate((f[once:once + ghosts][::-1], f)) if ghosts else f
                       for f in (u, sigma, theta))
    b = _d4(_d4(sigma[:, 4:-4], hx, axis=0), hx, axis=0)     # sigma_xx
    a = _d4(u[4:-4, 2:-2], ht, axis=1)                        # u_t

    # stride-2 Richardson estimate of the differentiation error, at the even interior points
    lo = 8 if ghosts else 4     # u_t's first, on the half the first even row x >= 0
    est = (np.abs(_d4(u[lo:-4:2, ::2], 2 * ht, axis=1) - a[lo - 4::2, ::2]),
           np.abs(_d4(_d4(sigma[::2, 4:-4:2], 2 * hx, axis=0), 2 * hx, axis=0) - b[4:-4:2, ::2]))
    # np.nanmax's own reduction, without its warning where every entry is nan
    fd_err = float(max(np.fmax.reduce(e / 15.0, axis=None) for e in est))

    def residuals():   # each formed in a, with b free again by the time it is reduced
        yield np.subtract(a, b, out=a)
        yield np.subtract(_d4(theta[4:-4, 2:-2], ht, axis=1, out=a),
                          np.multiply(sigma[4:-4, 4:-4], u[4:-4, 4:-4], out=b), out=a)
        # sigma - power_law_stress(alpha, n, theta, u), its expression formed in b and a
        s = np.multiply(-params.alpha, theta[4:-4, 4:-4], out=b)
        s += np.multiply(params.n, np.log(u[4:-4, 4:-4], out=a), out=a)
        yield np.subtract(sigma[4:-4, 4:-4], np.exp(s, out=b), out=a)
    first = max(ghosts - 4, 0)   # the row x = 0 or least x > 0; in l2, the rest count twice
    sup, l2 = zip(*((float(np.max(np.abs(r, out=o))), float(np.sqrt(
        (2 * np.sum(np.multiply(r, r, out=o)[once:]) + np.sum(o[:once]))
        / ((nx - 8) * (sigma.shape[1] - 8)))))
        for r, o in ((r[first:], b[first:]) for r in residuals())))
    return SpaceTimeResidual(sup=sup, l2=l2, fd_error_estimate=fd_err,
                             at_interpolation_floor=fd_err < max(sup[0], sup[1]) / 3.0,
                             nx=nx, nt=sigma.shape[1])


def residual_convergence(sol: LocalizedSolution, xmax=5.0, t_span=(0.0, 10.0),
                         nx0: int = 33, nt0: int = 17, levels: int = 4):
    """Sup residuals under grid refinement and the fitted convergence order.

    Level k has (nx0 - 1) 2**k + 1 points on [-xmax, xmax] by (nt0 - 1) 2**k + 1 on t_span.
    The solution, even in x, is evaluated once, on the finest grid's points x >= 0
    (``half_line``); each level's are a stride-2**j slice of them, which ``_difference``
    reports on.  The order is fitted from consecutive levels above the interpolation floor.
    A level whose sup, l2 or error estimate is not finite raises RangeError, naming the
    level's grid, its steps and the quantity.
    """
    if levels < 1:
        raise ParameterError(f"levels must be >= 1, got {levels}")
    for n0, name, least in ((nx0, "x", MIN_X_POINTS), (nt0, "t", MIN_T_POINTS)):
        if n0 < least:
            raise ParameterError(f"{name} grid must be uniform with >= {least} points")
    top = levels - 1
    nx = (nx0 - 1) * 2 ** top + 1
    x, hx = half_line(xmax, nx)
    t = np.linspace(*t_span, (nt0 - 1) * 2 ** top + 1)
    strides = [2 ** (top - lev) for lev in range(levels)]
    for k in strides:
        _check_grid(t[::k], "t", MIN_T_POINTS)
    fields = sol.evaluate(x[:, None], t[None, :])
    reports = []
    for k in strides:   # the level's points x >= 0: the finest half's from (-(nx-1)/2) % k on
        r = _difference(sol.params, k * hx, t[k] - t[0],
                        *(f[-((nx - 1) // 2) % k::k, ::k] for f in fields), nx=(nx - 1) // k + 1)
        norms = [(f"{name} residual's {norm}", v) for norm in ("sup", "l2")
                 for name, v in zip(("momentum", "heating", "constitutive"), getattr(r, norm))]
        for what, v in norms + [("fd_error_estimate", r.fd_error_estimate)]:
            if not math.isfinite(v):
                raise RangeError(f"residual study on the {r.nx}x{r.nt} grid (hx = {k * hx:.3e}, "
                                 f"ht = {t[k] - t[0]:.3e}): the {what} is {v}, not a finite float")
        reports.append(r)
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
    with xi_half the root of U(xi) = U(0)/2, a property of the profile alone, which
    its ``xi_at_U`` solves once.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if np.any(np.diff(t_grid) <= 0) or np.any(t_grid < 0):
        raise ParameterError("t grid must be positive and increasing")
    xi_half = sol.profile.xi_at_U(0.5 * sol.profile.U0)
    peaks, _, theta0 = sol.evaluate(0.0, t_grid)
    widths = xi_half / (math.sqrt(sol.profile.nu) * sol.phi(t_grid))
    return BandDiagnostics(t=t_grid, peak_u=peaks, halfwidth=widths,
                           theta_excess=theta0 - uniform_shear(sol.params, t_grid).theta_s)
