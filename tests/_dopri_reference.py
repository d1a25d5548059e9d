"""The DOPRI5 stepper before its inner loop was unrolled, kept as a test oracle.

``_rms``, ``_dense`` and ``solve_ivp`` below are verbatim copies of the
tuple-convention version of ``shearlab._dopri``, less the ``t_eval``
sampling that the package has since dropped: ``fun(t, y)`` and
``g(t, y)`` get ``y`` as a pair, the stage tuple is built on every step and
the dense coefficients are generator sums.  The tableau, ``_brentq`` and the
result type are imported from the package, whose tests pin them to SciPy.

``sum`` is pinned to the plain left-to-right float sum of Python 3.10/3.11
that the goldens were made with; the builtin compensates rounding since
3.12, which would make the oracle, not the stepper, differ between versions.
``reference_solve_ivp`` calls the oracle with the package's scalar
convention ``fun(t, a, b)``.
"""

import math
from warnings import warn

import numpy as np

from shearlab._dopri import (_A21, _A31, _A32, _A41, _A42, _A43, _A51, _A52, _A53, _A54,
                             _A61, _A62, _A63, _A64, _A65, _B1, _B3, _B4, _B5, _B6, _C2,
                             _C3, _C4, _C5, _E1, _E3, _E4, _E5, _E6, _E7, _EPS, _EXPONENT,
                             MAX_FACTOR, MIN_FACTOR, P, SAFETY, OdeResult, _brentq)


def sum(items):   # noqa: A001 -- the builtin's float loop before Python 3.12
    total = 0
    for item in items:
        total = total + item
    return total


def reference_solve_ivp(fun, t_span, y0, events=None, **options):
    """The oracle on a scalar-convention ``fun(t, a, b)`` and ``g(t, a, b)``."""
    tuple_events = None
    if events is not None:
        def tuple_events(t, y):
            return events(t, *y)
        tuple_events.terminal = events.terminal
        tuple_events.direction = getattr(events, "direction", 0)
    return solve_ivp(lambda t, y: fun(t, *y), t_span, y0, events=tuple_events, **options)


def _rms(x0, x1):
    return math.sqrt(x0 * x0 + x1 * x1) / math.sqrt(2.0)   # as np.linalg.norm(x) / 2 ** 0.5


def _dense(t_old, h, ya, yb, K):
    """The step's 4th-order interpolant y(t) = y_old + h sum_j Q_j x^(j+1)."""
    qa = [sum(k[0] * p[j] for k, p in zip(K, P)) for j in range(4)]
    qb = [sum(k[1] * p[j] for k, p in zip(K, P)) for j in range(4)]

    def sol(t):
        x = (t - t_old) / h
        x2 = x * x
        x3 = x2 * x
        x4 = x3 * x
        return (h * (qa[0] * x + qa[1] * x2 + qa[2] * x3 + qa[3] * x4) + ya,
                h * (qb[0] * x + qb[1] * x2 + qb[2] * x3 + qb[3] * x4) + yb)
    return sol


def solve_ivp(fun, t_span, y0, events=None, rtol=1e-3, atol=1e-6, max_step=math.inf):
    """Integrate y' = fun(t, y) for a 2-component y forward over ``t_span``.

    ``fun`` gets a tuple of two floats and returns two numbers.  ``events`` is
    one terminal event function ``g(t, y)``, with SciPy's optional
    ``direction`` attribute; it is located by ``_brentq`` on the dense output and
    its point ends ``t``/``y`` (status 1).  A step below the minimum returns
    status -1.
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
    fa, fb = fun(t, (ya, yb))

    # initial step (Hairer, Norsett & Wanner, sec. II.4)
    length = t_bound - t
    sa = atol + abs(ya) * rtol
    sb = atol + abs(yb) * rtol
    d0 = _rms(ya / sa, yb / sb)
    d1 = _rms(fa / sa, fb / sb)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, length)
    ga, gb = fun(t + h0, (ya + h0 * fa, yb + h0 * fb))
    d2 = _rms((ga - fa) / sa, (gb - fb) / sb) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** -_EXPONENT
    h_abs = min(100 * h0, h1, length, max_step)
    nfev = 2

    g = events(t, (ya, yb)) if events is not None else None
    ts, ays, bys = [t], [ya], [yb]
    status = None
    while status is None:
        min_step = 10.0 * (math.nextafter(t, math.inf) - t)
        h_abs = max_step if h_abs > max_step else max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                status = -1
                break
            t_new = min(t + h_abs, t_bound)
            h = t_new - t
            h_abs = h

            ka2, kb2 = fun(t + _C2 * h, (ya + h * (_A21 * fa), yb + h * (_A21 * fb)))
            ka3, kb3 = fun(t + _C3 * h, (ya + h * (_A31 * fa + _A32 * ka2),
                                         yb + h * (_A31 * fb + _A32 * kb2)))
            ka4, kb4 = fun(t + _C4 * h, (ya + h * (_A41 * fa + _A42 * ka2 + _A43 * ka3),
                                         yb + h * (_A41 * fb + _A42 * kb2 + _A43 * kb3)))
            ka5, kb5 = fun(t + _C5 * h,
                           (ya + h * (_A51 * fa + _A52 * ka2 + _A53 * ka3 + _A54 * ka4),
                            yb + h * (_A51 * fb + _A52 * kb2 + _A53 * kb3 + _A54 * kb4)))
            ka6, kb6 = fun(t + h, (ya + h * (_A61 * fa + _A62 * ka2 + _A63 * ka3
                                             + _A64 * ka4 + _A65 * ka5),
                                   yb + h * (_A61 * fb + _A62 * kb2 + _A63 * kb3
                                             + _A64 * kb4 + _A65 * kb5)))
            na = ya + h * (_B1 * fa + _B3 * ka3 + _B4 * ka4 + _B5 * ka5 + _B6 * ka6)
            nb = yb + h * (_B1 * fb + _B3 * kb3 + _B4 * kb4 + _B5 * kb5 + _B6 * kb6)
            ka7, kb7 = fun(t_new, (na, nb))
            nfev += 6

            ea = h * (_E1 * fa + _E3 * ka3 + _E4 * ka4 + _E5 * ka5 + _E6 * ka6 + _E7 * ka7)
            eb = h * (_E1 * fb + _E3 * kb3 + _E4 * kb4 + _E5 * kb5 + _E6 * kb6 + _E7 * kb7)
            err = _rms(ea / (atol + max(abs(ya), abs(na)) * rtol),
                       eb / (atol + max(abs(yb), abs(nb)) * rtol))
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
        K = ((fa, fb), (ka2, kb2), (ka3, kb3), (ka4, kb4), (ka5, kb5), (ka6, kb6), (ka7, kb7))
        t_end, end_a, end_b = t_new, na, nb
        if events is not None:
            g_new = events(t_new, (na, nb))
            if (direction >= 0 and g <= 0 <= g_new) or (direction <= 0 and g >= 0 >= g_new):
                sol = _dense(t, h, ya, yb, K)
                t_end = _brentq(lambda s: events(s, sol(s)), t, t_new)
                end_a, end_b = sol(t_end)
                status = 1
            g = g_new

        ts.append(t_end)
        ays.append(end_a)
        bys.append(end_b)

        t, ya, yb, fa, fb = t_new, na, nb, ka7, kb7

    return OdeResult(t=np.array(ts), y=np.array([ays, bys]), status=status, nfev=nfev)
