"""Dormand-Prince 5(4) on Python floats for 2-component systems.

A drop-in for the part of ``scipy.integrate.solve_ivp(method="RK45")`` that
the orbit shooter uses, with no SciPy import.  The right-hand side takes the
two components as scalars, ``fun(t, a, b)``, where SciPy passes one array
``y``.  The tableau (A, B, C and E) is written out with the same expressions
as SciPy's RK45 (``scipy/integrate/_ivp/rk.py``), and the tests check it
against SciPy's arrays bit for bit.  The caller always gives the first step;
there is no initial-step rule.  The step controller (safety 0.9, factors 0.2
and 10, RMS error norm, ``max_step`` and a minimum step of 10 spacings of t)
is SciPy's, so from the same ``first_step`` it takes SciPy's step sequence.
SciPy forms each stage with ``np.dot`` on length-2 arrays, where the NumPy
overhead is most of the cost of a step; here the stages are unrolled sums of
Python floats, so the values agree with SciPy's to rounding, not bit for
bit.  Every sum is written out in a fixed order, so a run gives the same bits
on every Python version.  The result holds every step, and a stop predicate,
checked after each accepted step, ends the solve at the first step where it
holds; there is no dense output and no root finding.

References: Dormand & Prince, J. Comput. Appl. Math. 6 (1980) 19-26; Hairer,
Norsett & Wanner, Solving ODEs I, sec. II.4-II.6.
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

_C2, _C3, _C4, _C5 = C[1:5]
(_, (_A21,), (_A31, _A32), (_A41, _A42, _A43), (_A51, _A52, _A53, _A54),
 (_A61, _A62, _A63, _A64, _A65)) = [row[:i] for i, row in enumerate(A)]
_B1, _, _B3, _B4, _B5, _B6 = B      # B2 = 0
_E1, _, _E3, _E4, _E5, _E6, _E7 = E  # E2 = 0
_SQRT2 = math.sqrt(2.0)

_MESSAGES = {0: "The solver successfully reached the end of the integration interval.",
             1: "The stop condition held after a step.",
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


def solve_ivp(fun, t_span, y0, first_step, stop=None, rtol=1e-3, atol=1e-6,
              max_step=math.inf):
    """Integrate (a, b)' = fun(t, a, b) forward over ``t_span`` from ``y0 = (a, b)``.

    ``fun`` gets the two components as floats and returns two numbers.
    ``stop(t, a, b)``, if given, is checked after each accepted step; the
    solve ends at the first step where it is true, with that step's end as
    the last sample (status 1).  ``first_step``, as in SciPy, is the size of
    the first trial step, finite, positive and within ``t_span``.  A step
    below the minimum returns status -1; so does a state that is not finite,
    whose every trial step is rejected.  The result is the same bits on every
    Python version.
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
    if not 0 < first_step <= t_bound - t or math.isinf(first_step):
        raise ValueError("`first_step` must be positive." if first_step <= 0
                         else "`first_step` exceeds bounds.")

    ya, yb = (float(v) for v in y0)
    fa, fb = fun(t, ya, yb)
    ts, ays, bys = [t], [ya], [yb]
    h_abs, nfev = float(first_step), 1
    status = None
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

            # the RMS error norm, as np.linalg.norm(x) / 2 ** 0.5
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

        ts.append(t_new)
        ays.append(na)
        bys.append(nb)
        if stop is not None and stop(t_new, na, nb):
            status = 1
        elif t_new >= t_bound:
            status = 0

        t, ya, yb, fa, fb = t_new, na, nb, ka7, kb7

    return OdeResult(t=np.array(ts), y=np.array([ays, bys]), status=status, nfev=nfev)
