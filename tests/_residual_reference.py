"""The finite-difference residuals before they were formed on the interior only,
kept as a test oracle.

``_d4``, ``difference`` and ``ode_residual`` below are verbatim copies of that
version of ``shearlab.profile._d4``, ``shearlab.localization._difference`` and
``shearlab.profile.ode_residual``: ``_d4`` returns a full-size array with NaN
at the two points of each edge, ``difference`` forms the three space-time
residuals and both stride-2 estimates on the whole grid before it slices out
the interior, and ``ode_residual`` does the same on the profile grid.  The
package must give the same bits.  ``difference`` forms its arrays in
``arrays``, with the same operations; ``half_line_difference`` reduces them
over x >= 0, as the residual study reports a grid symmetric about x = 0.
"""

import numpy as np

from shearlab.errors import ParameterError
from shearlab.localization import SpaceTimeResidual
from shearlab.material import power_law_stress
from shearlab.profile import ResidualReport


def _d4(values, h, axis):
    """4th-order central first derivative along an axis; NaN at the two points of each edge."""
    v = np.moveaxis(values, axis, 0)
    d = np.full_like(v, np.nan)
    d[2:-2] = (v[:-4] - 8 * v[1:-3] + 8 * v[3:-1] - v[4:]) / (12 * h)
    return np.moveaxis(d, 0, axis)


def arrays(params, x, t, u, sigma, theta):
    """The three residuals on the interior and the two error estimates at the even
    interior points, each divided by 15, that ``difference`` reduces."""
    hx = x[1] - x[0]
    ht = t[1] - t[0]

    du_dt = _d4(u, ht, axis=1)
    dth_dt = _d4(theta, ht, axis=1)
    dsig_dx = _d4(sigma, hx, axis=0)
    d2sig_dx2 = _d4(dsig_dx, hx, axis=0)

    r1 = du_dt - d2sig_dx2
    r2 = dth_dt - sigma * u
    r3 = sigma - power_law_stress(params.alpha, params.n, theta, u)

    # stride-2 Richardson estimate of the differentiation error
    u2, sigma2 = u[::2, ::2], sigma[::2, ::2]
    du_dt2 = _d4(u2, 2 * ht, axis=1)
    dsig_dx2c = _d4(_d4(sigma2, 2 * hx, axis=0), 2 * hx, axis=0)
    est1 = np.abs(du_dt2 - du_dt[::2, ::2]) / 15.0
    est2 = np.abs(dsig_dx2c - d2sig_dx2[::2, ::2]) / 15.0

    interior = (slice(4, -4), slice(4, -4))
    return (r1[interior], r2[interior], r3[interior]), (est1[2:-2, 2:-2], est2[2:-2, 2:-2])


def difference(params, x, t, u, sigma, theta) -> SpaceTimeResidual:
    """The residual norms of fields (u, sigma, theta) given on the grid x by t."""
    res, (est1, est2) = arrays(params, x, t, u, sigma, theta)
    fd_err = float(max(np.nanmax(est1), np.nanmax(est2)))
    sup = tuple(float(np.max(np.abs(r))) for r in res)
    l2 = tuple(float(np.sqrt(np.mean(r * r))) for r in res)
    return SpaceTimeResidual(sup=sup, l2=l2, fd_error_estimate=fd_err,
                             at_interpolation_floor=fd_err < max(sup[0], sup[1]) / 3.0,
                             nx=x.size, nt=t.size)


def half_line_difference(params, x, t, u, sigma, theta) -> SpaceTimeResidual:
    """``difference`` on a grid x symmetric about 0, with each norm taken over x >= 0 by
    the rule of docs/formats.md: ``sup`` over the interior rows x >= 0; ``l2`` with the
    row x = 0 (present when x.size is odd) counted once and every row x > 0 twice, over
    the interior's point count; the error estimate at the points x >= 0 that mirror the
    grid's even points.  For an even x.size those are its odd points, whose estimate is
    the even points' of the grid without its first row."""
    nx, half, once = x.size, x.size // 2, x.size % 2     # half: the first row x >= 0
    res, _ = arrays(params, x, t, u, sigma, theta)
    _, est = arrays(params, x[1 - once:], t, *(f[1 - once:] for f in (u, sigma, theta)))
    res = [np.ascontiguousarray(r[half - 4:]) for r in res]
    # each estimate's row i is at the row 2 i + 4 of the grid it was formed on
    start = max(-(-(half - 1 + once) // 2) - 2, 0)
    fd_err = float(np.nanmax(np.concatenate([e[start:].ravel() for e in est])))
    sup = tuple(float(np.max(np.abs(r))) for r in res)
    l2 = tuple(float(np.sqrt((2 * np.sum((r * r)[once:]) + np.sum((r * r)[:once]))
                             / ((nx - 8) * (t.size - 8)))) for r in res)
    return SpaceTimeResidual(sup=sup, l2=l2, fd_error_estimate=fd_err,
                             at_interpolation_floor=fd_err < max(sup[0], sup[1]) / 3.0,
                             nx=nx, nt=t.size)


def ode_residual(evaluator, nu: float, n: float, alpha: float, xi) -> ResidualReport:
    """Residual norms of the profile system on the grid xi, by 4th-order differences."""
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
                          grid_too_coarse=fd_err > max(max(sup), 1e-300))
