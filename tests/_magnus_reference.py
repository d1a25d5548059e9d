"""The sixth-order Magnus propagator before it skipped the values it throws away,
kept as a test oracle.

``_expm2``, ``_mul``, ``_propagators`` and ``solve_ivp`` below, and the
constants they read, are verbatim copies of that version of
``shearlab._magnus``: ``_expm2`` forms cos and sin on every Omega,
``_propagators`` takes the largest squared a22 of the Gauss nodes with
``np.max`` and checks the four entries of Omega for finiteness as one stacked
array, and ``solve_ivp`` resweeps and retests every interval after each round
of refinement.  The package must give the same bits.
"""

import math

import numpy as np

from shearlab._magnus import OdeResult
from shearlab.errors import StiffnessError

MAX_SUBSTEPS = 4096   # per output interval
CONVERGENT = math.pi  # the largest h |A| of a substep with the sixth-order terms
_NODES = np.array([0.5 - math.sqrt(15.0) / 10.0, 0.5, 0.5 + math.sqrt(15.0) / 10.0])


def _expm2(a, b, c, d):
    """e^w = e^m (cosh d I + (sinh d / d)(w - m I)) for 2x2 matrices w given by
    their entry arrays [[a, b], [c, d]]; returns the four entry arrays of e^w.

    m = tr(w)/2, p = (w11 - w22)/2, d^2 = p^2 + bc from r = sqrt|b| sqrt|c| (no
    square overflows); d^2 < 0 takes cos and sin.  For d >= 1, e^(m +- d) enter
    apart, the slow eigenvalue as det(w) over the fast and d -+ |p| as
    +-r^2 / (d +- |p|), so no entry cancels; for d < 1, e^m cosh d and
    e^m sinh d / d are formed directly.
    """
    m, p = 0.5 * a + 0.5 * d, 0.5 * a - 0.5 * d
    q, r, sign = np.abs(p), np.sqrt(np.abs(b)) * np.sqrt(np.abs(c)), np.sign(b) * np.sign(c)
    with np.errstate(all="ignore"):   # each branch is formed everywhere, kept where it holds
        delta = np.where(sign >= 0, np.hypot(q, r), np.sqrt(np.abs(q - r)) * np.sqrt(q + r))
        oscillating = (sign < 0) & (q < r)
        large = ~oscillating & (delta >= 1.0)
        big = m + np.copysign(delta, m)
        small = (a / big) * d - (b / big) * c
        up = m >= 0
        e_up, e_down = np.exp(np.where(up, big, small)), np.exp(np.where(up, small, big))
        d_q, d_p = sign * r * (r / (delta + q)), delta + q
        d_plus, d_minus = np.where(p >= 0, d_p, d_q), np.where(p >= 0, d_q, d_p)
        e_m = np.exp(m)
        cosh = e_m * np.where(oscillating, np.cos(delta), np.cosh(delta))
        sinhc = e_m * np.where(delta == 0.0, 1.0, np.where(oscillating, np.sin(delta),
                                                           np.sinh(delta)) / delta)
        s = np.where(large, (e_up - e_down) / (2.0 * delta), sinhc)
        d0 = np.where(large, (e_up * d_plus + e_down * d_minus) / (2.0 * delta), cosh + sinhc * p)
        d1 = np.where(large, (e_up * d_minus + e_down * d_plus) / (2.0 * delta), cosh - sinhc * p)
    return d0, s * b, s * c, d1


def _mul(x, y):
    """The entries of x y for 2x2 matrices given by their four entries each."""
    x11, x12, x21, x22 = x
    y11, y12, y21, y22 = y
    return (x11 * y11 + x12 * y21, x11 * y12 + x12 * y22,
            x21 * y11 + x22 * y21, x21 * y12 + x22 * y22)


def _propagators(fixed, a22, lo, hi, m):
    """The propagator of each interval [lo, hi], the product of its m substeps, as the
    row (p11, p12, p21, p22)."""
    chunk = max(1, 8192 // m)    # at most 8192 substeps in one NumPy pass
    if lo.size > chunk:
        return np.concatenate([_propagators(fixed, a22, lo[i:i + chunk], hi[i:i + chunk], m)
                               for i in range(0, lo.size, chunk)])
    a, b, c = fixed
    beta = b * c
    h = ((hi - lo) / m)[:, None, None]
    with np.errstate(over="ignore", invalid="ignore"):   # caught in Omega, or in the state
        d = a22(lo[:, None, None] + h * (np.arange(m)[:, None] + _NODES))
        h, d1, d2, d3 = h[..., 0], d[..., 0], d[..., 1], d[..., 2]
        # alpha2 = s2 E, alpha3 = s3 E; with [D, S] = 2F, [D, F] = 2S, [S, F] = -2 beta D,
        # [alpha1, alpha2] = h s2 F and [alpha1, alpha3] = h s3 F, p = a11 - a22 at A2
        p = a - d2
        s2 = (math.sqrt(15.0) / 3.0) * h * (d3 - d1)
        s3 = (10.0 / 3.0) * h * (d3 - 2.0 * d2 + d1)
        hp, hs2 = h * p, h * s2
        # the fourth-order truncation alpha1 + alpha3/12 - [alpha1, alpha2]/12 on F
        z4 = hs2 / -12.0
        # the rest of (1/240)[X, Y], on D, S and F
        w = hs2 * s2
        x6 = (beta * h / -120.0) * ((2.0 / 3.0) * h * s3 + hp * w / 60.0)
        y6 = (h / 120.0) * (hp * s3 / 3.0 - s3 * s3 / 60.0 + 0.5 * s2 * s2 - beta * h * w / 30.0)
        z6 = z4 + (hs2 / 120.0) * (hp * hp / 6.0 - hp * s3 / 120.0 + (2.0 / 3.0) * beta * h * h)
        # the series converges where h |A| < pi (Moan & Niesen, Found. Comput. Math. 8,
        # 2008), |A| the Frobenius norm in the frame where |a12| = |a21|, at the nodes
        six = h * np.sqrt(a * a + 2.0 * abs(beta) + np.max(d * d, axis=2)) <= CONVERGENT
        x, y, z = np.where(six, x6, 0.0), h + np.where(six, y6, 0.0), np.where(six, z6, z4)
        # Omega = alpha1 + alpha3/12 + x D + (y - h) S + z F, where
        # alpha1 + alpha3/12 = diag(h a11, h a22 + s3/12) + h S
        omega = h * a + x, b * (y + z), c * (y - z), h * d2 + s3 / 12.0 - x
        bad = np.flatnonzero(~np.isfinite(omega).all(axis=(0, 2)))
        if bad.size:
            raise StiffnessError(f"A(t) h is not finite on [{lo[bad[0]]}, {hi[bad[0]]}]")
        e = _expm2(*omega)
        while e[0].shape[1] > 1:
            e = _mul([q[:, 1::2] for q in e], [q[:, 0::2] for q in e])
    return np.concatenate(e, axis=1)


def solve_ivp(fixed, a22, t_eval, y0, rtol, atol):
    """y' = A(t) y from ``y0`` at ``t_eval[0]``, sampled at each point of ``t_eval``.

    A = [[a11, a12], [a21, a22(t)]]: ``fixed`` holds the constant entries
    (a11, a12, a21), and ``a22(t)`` gives the varying one at the points of the
    array ``t``, as an array of its shape; ``nfev`` counts the points.  Raises
    StiffnessError where A or the state is not finite, or where an interval
    needs more than MAX_SUBSTEPS: once an interval reaches the cap, the ones
    after it wait while those before it are refined, and the error quotes the
    state they give at its start.
    """
    t = np.asarray(t_eval, dtype=float)
    lo, hi = t[:-1], t[1:]
    level = np.ones(lo.size, dtype=int)     # the coarse substeps; the fine take twice as many
    coarse, fine = _propagators(fixed, a22, lo, hi, 1), _propagators(fixed, a22, lo, hi, 2)
    nfev = 9 * lo.size

    def failing(i):   # the intervals of i where the two steps from the swept state differ
        y1, y2 = ys[i, 0], ys[i, 1]
        with np.errstate(over="ignore", invalid="ignore"):   # a NaN estimate fails
            f, g = fine[i].T, coarse[i].T
            f1, f2 = f[0] * y1 + f[1] * y2, f[2] * y1 + f[3] * y2
            g1, g2 = g[0] * y1 + g[1] * y2, g[2] * y1 + g[3] * y2
            size = np.maximum(np.maximum(np.abs(y1), np.abs(y2)),
                              np.maximum(np.abs(f1), np.abs(f2)))
            error = np.maximum(np.abs(f1 - g1), np.abs(f2 - g2))
            return i[~(error <= atol + rtol * size)]

    capped = lo.size   # the first interval found to need more than MAX_SUBSTEPS, if any
    while True:
        ya, yb = (float(v) for v in y0)
        ys = [ya, yb]
        for f0, f1, f2, f3 in fine.tolist():
            ya, yb = f0 * ya + f1 * yb, f2 * ya + f3 * yb
            ys += ya, yb
        ys = np.array(ys).reshape(-1, 2)
        bad = np.flatnonzero(~np.isfinite(ys[:capped + 1]).all(axis=1))
        if bad.size:
            raise StiffnessError(f"the state is not finite at t = {t[bad[0]]}, from "
                                 f"{tuple(ys[bad[0] - 1].tolist())} at t = {t[bad[0] - 1]}")
        # a capped interval, and those after it, wait for the solution at its start
        failed = failing(np.arange(capped))
        if not failed.size and capped < lo.size:
            raise StiffnessError(f"more than {MAX_SUBSTEPS} substeps on [{t[capped]}, "
                                 f"{t[capped + 1]}], from {tuple(ys[capped].tolist())}")
        if not failed.size:
            return OdeResult(t=t, y=ys.T, status=0, nfev=nfev)
        # double the substeps where the estimate from this sweep's states fails, then resweep
        while failed.size:
            over = failed[4 * level[failed] > MAX_SUBSTEPS]
            if over.size:
                capped = over[0]
                failed = failed[failed < capped]
            for m in np.unique(level[failed]):
                sel = failed[level[failed] == m]
                coarse[sel] = fine[sel]
                fine[sel] = _propagators(fixed, a22, lo[sel], hi[sel], 4 * m)
                nfev += 12 * m * sel.size
            level[failed] *= 2
            failed = failing(failed)
