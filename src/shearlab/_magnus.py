"""Fourth-order Magnus propagator for 2x2 linear systems y' = A(t) y (Iserles &
Norsett, Phil. Trans. R. Soc. A 357, 1999): a substep is y <- e^Omega y with
Omega = (h/2)(A1 + A2) + (sqrt(3) h^2/12)[A2, A1] at the two Gauss points, and
e^Omega in closed form.  Each output interval takes m and 2m substeps, m
doubled until the two states differ by at most rtol max|y| + atol.
"""

from __future__ import annotations

import math

import numpy as np

from ._dopri import OdeResult
from .errors import StiffnessError

__all__ = ["check_t_eval", "solve_ivp"]

MAX_SUBSTEPS = 4096   # per output interval
_NODES = np.array([0.5 - math.sqrt(3.0) / 6.0, 0.5 + math.sqrt(3.0) / 6.0])


def check_t_eval(t_eval, t_span):
    """``t_eval`` as a float array, with the checks of SciPy's ``solve_ivp``.

    Raises ValueError unless it is 1-D, inside ``t_span`` and strictly
    increasing.  Unlike SciPy's checks, these also reject NaN.
    """
    t_eval = np.asarray(t_eval, dtype=float)
    if t_eval.ndim != 1:
        raise ValueError("`t_eval` must be 1-dimensional.")
    if not np.all((t_eval >= t_span[0]) & (t_eval <= t_span[1])):
        raise ValueError("Values in `t_eval` are not within `t_span`.")
    if not np.all(np.diff(t_eval) > 0):
        raise ValueError("Values in `t_eval` are not properly sorted.")
    return t_eval


def _expm2(w):
    """e^w = e^m (cosh d I + (sinh d / d)(w - m I)) for a stack of 2x2 matrices.

    m = tr(w)/2, p = (w11 - w22)/2, d^2 = p^2 + bc from r = sqrt|b| sqrt|c| (no
    square overflows); d^2 < 0 takes cos and sin.  For d >= 1, e^(m +- d) enter
    apart, the slow eigenvalue as det(w) over the fast and d -+ |p| as
    +-r^2 / (d +- |p|), so no entry cancels; for d < 1, e^m cosh d and
    e^m sinh d / d are formed directly.
    """
    a, b, c, d = w[..., 0, 0], w[..., 0, 1], w[..., 1, 0], w[..., 1, 1]
    m, p = 0.5 * a + 0.5 * d, 0.5 * a - 0.5 * d
    q, r, sign = np.abs(p), np.sqrt(np.abs(b)) * np.sqrt(np.abs(c)), np.sign(b) * np.sign(c)
    with np.errstate(all="ignore"):   # each branch is formed everywhere, kept where it holds
        delta = np.where(sign >= 0, np.hypot(q, r), np.sqrt(np.abs(q - r)) * np.sqrt(q + r))
        oscillating = (sign < 0) & (q < r)
        large = ~oscillating & (delta >= 1.0)
        big = m + np.copysign(delta, m)
        small = (a / big) * d - (b / big) * c
        e_up, e_down = np.exp(np.where(m >= 0, (big, small), (small, big)))
        d_q = sign * r * (r / (delta + q))
        d_plus, d_minus = np.where(p >= 0, (delta + q, d_q), (d_q, delta + q))
        cosh = np.exp(m) * np.where(oscillating, np.cos(delta), np.cosh(delta))
        sinhc = np.exp(m) * np.where(delta == 0.0, 1.0, np.where(oscillating, np.sin(delta),
                                                                 np.sinh(delta)) / delta)
        s = np.where(large, (e_up - e_down) / (2.0 * delta), sinhc)
        d0 = np.where(large, (e_up * d_plus + e_down * d_minus) / (2.0 * delta), cosh + sinhc * p)
        d1 = np.where(large, (e_up * d_minus + e_down * d_plus) / (2.0 * delta), cosh - sinhc * p)
    return np.stack([np.stack([d0, s * b], -1), np.stack([s * c, d1], -1)], -2)


def _propagators(matrix, lo, hi, m):
    """The propagator of each interval [lo, hi]: the product of its m substeps."""
    chunk = max(1, 8192 // m)    # at most 8192 substeps in one NumPy pass
    if lo.size > chunk:
        return np.concatenate([_propagators(matrix, lo[i:i + chunk], hi[i:i + chunk], m)
                               for i in range(0, lo.size, chunk)])
    h = ((hi - lo) / m)[:, None, None]
    with np.errstate(over="ignore", invalid="ignore"):   # caught in Omega, or in the state
        a = matrix(lo[:, None, None] + h * (np.arange(m)[:, None] + _NODES))
        a1, a2, h = a[:, :, 0], a[:, :, 1], h[..., None]
        omega = 0.5 * h * (a1 + a2) + (math.sqrt(3.0) / 12.0) * h * h * (a2 @ a1 - a1 @ a2)
        bad = np.flatnonzero(~np.isfinite(omega).all(axis=(1, 2, 3)))
        if bad.size:
            raise StiffnessError(f"A(t) h is not finite on [{lo[bad[0]]}, {hi[bad[0]]}]")
        p = _expm2(omega)
        while p.shape[1] > 1:
            p = p[:, 1::2] @ p[:, 0::2]
    return p[:, 0]


def solve_ivp(matrix, t_eval, y0, rtol, atol):
    """y' = A(t) y from ``y0`` at ``t_eval[0]``, sampled at each point of ``t_eval``.

    ``matrix(t)`` gives A at each point of the array ``t``, shape ``t.shape +
    (2, 2)``; ``nfev`` counts those points.  Raises StiffnessError where A or
    the state is not finite, or an interval needs more than MAX_SUBSTEPS.
    """
    t = np.asarray(t_eval, dtype=float)
    lo, hi = t[:-1], t[1:]
    level = np.ones(lo.size, dtype=int)     # the coarse substeps; the fine take twice as many
    coarse, fine = _propagators(matrix, lo, hi, 1), _propagators(matrix, lo, hi, 2)
    nfev = 6 * lo.size

    def failing(i):   # the intervals of i where the two steps from the swept state differ
        with np.errstate(over="ignore", invalid="ignore"):   # a NaN estimate fails
            y_fine = (fine[i] @ ys[i, :, None])[..., 0]
            y_coarse = (coarse[i] @ ys[i, :, None])[..., 0]
            size = np.maximum(np.abs(ys[i]), np.abs(y_fine)).max(axis=1)
            return i[~(np.abs(y_fine - y_coarse).max(axis=1) <= atol + rtol * size)]

    while True:
        ya, yb = (float(v) for v in y0)
        ys = [(ya, yb)]
        for (f0, f1), (f2, f3) in fine.tolist():
            ya, yb = f0 * ya + f1 * yb, f2 * ya + f3 * yb
            ys.append((ya, yb))
        ys = np.array(ys)
        bad = np.flatnonzero(~np.isfinite(ys).all(axis=1))
        if bad.size:
            raise StiffnessError(f"the state is not finite at t = {t[bad[0]]}, from "
                                 f"{tuple(ys[bad[0] - 1].tolist())} at t = {t[bad[0] - 1]}")
        failed = failing(np.arange(lo.size))
        if not failed.size:
            return OdeResult(t=t, y=ys.T, status=0, nfev=nfev)
        # double the substeps where the estimate from this sweep's states fails, then resweep
        while failed.size:
            for m in np.unique(level[failed]):
                sel = failed[level[failed] == m]
                if 4 * m > MAX_SUBSTEPS:
                    raise StiffnessError(f"more than {MAX_SUBSTEPS} substeps on [{t[sel[0]]}, "
                                         f"{t[sel[0] + 1]}], from {tuple(ys[sel[0]].tolist())}")
                coarse[sel] = fine[sel]
                fine[sel] = _propagators(matrix, lo[sel], hi[sel], 4 * m)
                nfev += 8 * m * sel.size
            level[failed] *= 2
            failed = failing(failed)
