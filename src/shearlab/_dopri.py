"""Dormand-Prince 5(4) on Python floats for 2-component systems.

A drop-in for the part of ``scipy.integrate.solve_ivp(method="RK45")`` that
the orbit shooter uses, with no SciPy import.  The right-hand side and the
event take the two components as scalars, ``fun(t, a, b)`` and
``g(t, a, b)``, where SciPy passes one array ``y``.  The
tableau (A, B, C, E and the dense-output matrix P) is written out with the
same expressions as SciPy's RK45 (``scipy/integrate/_ivp/rk.py``), and the
tests check it against SciPy's arrays bit for bit.  The initial-step rule,
the step controller (safety 0.9, factors 0.2 and 10, RMS error norm,
``max_step`` and a minimum step of 10 spacings of t) and the 4th-order dense
output are SciPy's too, so it takes SciPy's step sequence.  SciPy forms each
stage with ``np.dot`` on length-2 arrays, where the NumPy overhead is most of
the cost of a step; here the stages are unrolled sums of Python floats, so
the values agree with SciPy's to rounding, not bit for bit.  Every sum is
written out in a fixed order, so a run gives the same bits on every Python
version.  The result holds every step; the dense output is formed only on
the step where a terminal event changes sign, and the event is located on it
by ``_brentq``, a port of SciPy's ``brentq.c`` that returns the same bits.

References: Dormand & Prince, J. Comput. Appl. Math. 6 (1980) 19-26; Hairer,
Norsett & Wanner, Solving ODEs I, sec. II.4-II.6; Brent, Algorithms for
Minimization without Derivatives (1973), ch. 4.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from warnings import warn

import numpy as np

__all__ = ["OdeResult", "solve_ivp"]

_EPS = sys.float_info.epsilon
SAFETY = 0.9
MIN_FACTOR = 0.2
MAX_FACTOR = 10.0
ERROR_ESTIMATOR_ORDER = 4
_EXPONENT = -1.0 / (ERROR_ESTIMATOR_ORDER + 1)   # error ~ h^(order + 1)

# SciPy's RK45 tableau, expression for expression
C = [0, 1/5, 3/10, 4/5, 8/9, 1]
A = [
    [0, 0, 0, 0, 0],
    [1/5, 0, 0, 0, 0],
    [3/40, 9/40, 0, 0, 0],
    [44/45, -56/15, 32/9, 0, 0],
    [19372/6561, -25360/2187, 64448/6561, -212/729, 0],
    [9017/3168, -355/33, 46732/5247, 49/176, -5103/18656]
]
B = [35/384, 0, 500/1113, 125/192, -2187/6784, 11/84]
E = [-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525, 1/40]
P = [
    [1, -8048581381/2820520608, 8663915743/2820520608, -12715105075/11282082432],
    [0, 0, 0, 0],
    [0, 131558114200/32700410799, -68118460800/10900136933, 87487479700/32700410799],
    [0, -1754552775/470086768, 14199869525/1410260304, -10690763975/1880347072],
    [0, 127303824393/49829197408, -318862633887/49829197408, 701980252875 / 199316789632],
    [0, -282668133/205662961, 2019193451/616988883, -1453857185/822651844],
    [0, 40617522/29380423, -110615467/29380423, 69997945/29380423]]

_C2, _C3, _C4, _C5 = C[1:5]
(_, (_A21,), (_A31, _A32), (_A41, _A42, _A43), (_A51, _A52, _A53, _A54),
 (_A61, _A62, _A63, _A64, _A65)) = [row[:i] for i, row in enumerate(A)]
_B1, _, _B3, _B4, _B5, _B6 = B      # B2 = 0
_E1, _, _E3, _E4, _E5, _E6, _E7 = E  # E2 = 0
((_P11, _P12, _P13, _P14), (_P21, _P22, _P23, _P24), (_P31, _P32, _P33, _P34),
 (_P41, _P42, _P43, _P44), (_P51, _P52, _P53, _P54), (_P61, _P62, _P63, _P64),
 (_P71, _P72, _P73, _P74)) = [[float(p) for p in row] for row in P]
_SQRT2 = math.sqrt(2.0)

_MESSAGES = {0: "The solver successfully reached the end of the integration interval.",
             1: "A termination event occurred.",
             -1: "Required step size is less than spacing between numbers."}


@dataclass(frozen=True)
class OdeResult:
    """The fields of SciPy's ``solve_ivp`` result that the callers read."""

    t: np.ndarray
    y: np.ndarray
    status: int
    nfev: int
    njev: int = 0   # an explicit method forms no Jacobian
    nlu: int = 0    # and factors no matrix

    @property
    def message(self) -> str:
        return _MESSAGES[self.status]

    @property
    def success(self) -> bool:
        return self.status >= 0


def _brentq(f, xa, xb, xtol=4 * _EPS, rtol=4 * _EPS, maxiter=100):
    """A root of f in [xa, xb]: SciPy's ``brentq.c``, step for step.

    Raises ValueError, as ``scipy.optimize.brentq`` does, if f has the same
    sign at both ends or returns NaN, and RuntimeError after ``maxiter``
    iterations without convergence.
    """
    def call(x):
        fx = f(x)
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    xpre, xcur = xa, xb
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = call(xpre), call(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:   # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:              # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry      # good short step
            else:
                spre = scur = sbis           # bisect
        else:
            spre = scur = sbis               # bisect

        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = call(xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations, value is {xcur}")


def _rms(x0, x1):
    return math.sqrt(x0 * x0 + x1 * x1) / _SQRT2   # as np.linalg.norm(x) / 2 ** 0.5


def _dense_coefficients(k1, k2, k3, k4, k5, k6, k7):
    """One component's interpolant coefficients Q_j = sum_i K_i P_ij, j = 1..4.

    Each is the left-to-right sum ``0.0 + K_1 P_1j + ... + K_7 P_7j`` that the
    builtin ``sum`` of Python 3.10/3.11 formed; since 3.12 ``sum`` compensates
    float rounding, so it is written out to give the same bits on every
    version.  The zero entries of P stay in, so that an infinite stage still
    makes the coefficient NaN.
    """
    return (0.0 + k1 * _P11 + k2 * _P21 + k3 * _P31 + k4 * _P41 + k5 * _P51 + k6 * _P61
            + k7 * _P71,
            0.0 + k1 * _P12 + k2 * _P22 + k3 * _P32 + k4 * _P42 + k5 * _P52 + k6 * _P62
            + k7 * _P72,
            0.0 + k1 * _P13 + k2 * _P23 + k3 * _P33 + k4 * _P43 + k5 * _P53 + k6 * _P63
            + k7 * _P73,
            0.0 + k1 * _P14 + k2 * _P24 + k3 * _P34 + k4 * _P44 + k5 * _P54 + k6 * _P64
            + k7 * _P74)


def _dense(t_old, h, ya, yb, ka, kb):
    """The step's 4th-order interpolant y(t) = y_old + h sum_j Q_j x^j.

    ``ka`` and ``kb`` are the seven stages of each component.
    """
    qa1, qa2, qa3, qa4 = _dense_coefficients(*ka)
    qb1, qb2, qb3, qb4 = _dense_coefficients(*kb)

    def sol(t):
        x = (t - t_old) / h
        x2 = x * x
        x3 = x2 * x
        x4 = x3 * x
        return (h * (qa1 * x + qa2 * x2 + qa3 * x3 + qa4 * x4) + ya,
                h * (qb1 * x + qb2 * x2 + qb3 * x3 + qb4 * x4) + yb)
    return sol


def solve_ivp(fun, t_span, y0, events=None, rtol=1e-3, atol=1e-6, max_step=math.inf):
    """Integrate (a, b)' = fun(t, a, b) forward over ``t_span`` from ``y0 = (a, b)``.

    ``fun`` gets the two components as floats and returns two numbers.
    ``events`` is one terminal event function ``g(t, a, b)``, with SciPy's
    optional ``direction`` attribute; it is located by ``_brentq`` on the dense
    output and its point ends ``t``/``y`` (status 1).  A step below the
    minimum, or a first step that is zero or not finite, returns status -1.
    The result is the same bits on every Python version.
    """
    t, t_bound = float(t_span[0]), float(t_span[1])
    if not t_bound > t:
        raise ValueError("t_span must be increasing")
    if max_step <= 0:
        raise ValueError("`max_step` must be positive.")
    if atol < 0:
        raise ValueError("`atol` must be positive.")
    if rtol < 100 * _EPS:
        warn(f"At least one element of `rtol` is too small. "
             f"Setting `rtol = np.maximum(rtol, {100 * _EPS})`.", stacklevel=2)
        rtol = 100 * _EPS
    if events is not None and not getattr(events, "terminal", False):
        raise ValueError("only one terminal event function is supported")
    direction = getattr(events, "direction", 0)

    ya, yb = (float(v) for v in y0)
    fa, fb = fun(t, ya, yb)

    # initial step (Hairer, Norsett & Wanner, sec. II.4)
    length = t_bound - t
    sa = atol + abs(ya) * rtol
    sb = atol + abs(yb) * rtol
    d0 = _rms(ya / sa, yb / sb)
    d1 = _rms(fa / sa, fb / sb)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, length)
    if h0 == 0.0:   # a finite state whose scaled slope overflows: d1 = inf
        return OdeResult(t=np.array([t]), y=np.array([[ya], [yb]]), status=-1, nfev=1)
    ga, gb = fun(t + h0, ya + h0 * fa, yb + h0 * fb)
    d2 = _rms((ga - fa) / sa, (gb - fb) / sb) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** -_EXPONENT
    h_abs = min(100 * h0, h1, length, max_step)
    nfev = 2

    g = events(t, ya, yb) if events is not None else None
    ts, ays, bys = [t], [ya], [yb]
    # a NaN first step (a NaN or infinite state or slope) would never fall below min_step
    status = None if math.isfinite(h_abs) else -1
    while status is None:
        # In the loop, ``y if y > x else x`` stands for max(x, y) and ``y if y <
        # x else x`` for min(x, y): the comparison the builtins make, so NaN
        # goes the same way, without the call.
        min_step = 10.0 * (math.nextafter(t, math.inf) - t)
        h_abs = max_step if h_abs > max_step else (min_step if min_step > h_abs else h_abs)
        abs_a, abs_b = abs(ya), abs(yb)
        rejected = False
        while True:
            if h_abs < min_step:
                status = -1
                break
            t_new = t + h_abs
            t_new = t_bound if t_bound < t_new else t_new
            h = t_new - t
            h_abs = h

            ka2, kb2 = fun(t + _C2 * h, ya + h * (_A21 * fa), yb + h * (_A21 * fb))
            ka3, kb3 = fun(t + _C3 * h, ya + h * (_A31 * fa + _A32 * ka2),
                           yb + h * (_A31 * fb + _A32 * kb2))
            ka4, kb4 = fun(t + _C4 * h, ya + h * (_A41 * fa + _A42 * ka2 + _A43 * ka3),
                           yb + h * (_A41 * fb + _A42 * kb2 + _A43 * kb3))
            ka5, kb5 = fun(t + _C5 * h,
                           ya + h * (_A51 * fa + _A52 * ka2 + _A53 * ka3 + _A54 * ka4),
                           yb + h * (_A51 * fb + _A52 * kb2 + _A53 * kb3 + _A54 * kb4))
            ka6, kb6 = fun(t + h, ya + h * (_A61 * fa + _A62 * ka2 + _A63 * ka3
                                            + _A64 * ka4 + _A65 * ka5),
                           yb + h * (_A61 * fb + _A62 * kb2 + _A63 * kb3
                                     + _A64 * kb4 + _A65 * kb5))
            na = ya + h * (_B1 * fa + _B3 * ka3 + _B4 * ka4 + _B5 * ka5 + _B6 * ka6)
            nb = yb + h * (_B1 * fb + _B3 * kb3 + _B4 * kb4 + _B5 * kb5 + _B6 * kb6)
            ka7, kb7 = fun(t_new, na, nb)
            nfev += 6

            # the RMS error norm, _rms inlined
            ea = h * (_E1 * fa + _E3 * ka3 + _E4 * ka4 + _E5 * ka5 + _E6 * ka6 + _E7 * ka7)
            eb = h * (_E1 * fb + _E3 * kb3 + _E4 * kb4 + _E5 * kb5 + _E6 * kb6 + _E7 * kb7)
            sa, sb = abs(na), abs(nb)
            ea /= atol + (sa if sa > abs_a else abs_a) * rtol
            eb /= atol + (sb if sb > abs_b else abs_b) * rtol
            err = math.sqrt(ea * ea + eb * eb) / _SQRT2
            if err < 1:
                factor = MAX_FACTOR if err == 0 else min(MAX_FACTOR, SAFETY * err ** _EXPONENT)
                h_abs *= min(1.0, factor) if rejected else factor
                break
            h_abs *= max(MIN_FACTOR, SAFETY * err ** _EXPONENT)
            rejected = True
        if status == -1:
            break

        if t_new >= t_bound:
            status = 0
        t_end, end_a, end_b = t_new, na, nb
        if events is not None:
            g_new = events(t_new, na, nb)
            if (direction >= 0 and g <= 0 <= g_new) or (direction <= 0 and g >= 0 >= g_new):
                sol = _dense(t, h, ya, yb, (fa, ka2, ka3, ka4, ka5, ka6, ka7),
                             (fb, kb2, kb3, kb4, kb5, kb6, kb7))
                t_end = _brentq(lambda s: events(s, *sol(s)), t, t_new)
                end_a, end_b = sol(t_end)
                status = 1
            g = g_new
        ts.append(t_end)
        ays.append(end_a)
        bys.append(end_b)

        t, ya, yb, fa, fb = t_new, na, nb, ka7, kb7

    return OdeResult(t=np.array(ts), y=np.array([ays, bys]), status=status, nfev=nfev)
