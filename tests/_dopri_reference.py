"""The DOPRI5 stepper before its inner loop was unrolled, kept as a test oracle.

``_rms`` and ``solve_ivp`` below are verbatim copies of the tuple-convention
version of ``shearlab._dopri``, less the ``t_eval`` sampling and the
terminal events that the package has since dropped for a stop predicate,
which the oracle checks in the same place, less the initial-step rule, and
plus the ``first_step``, now required, that the package has since taken from
SciPy: ``fun(t, y)`` and ``stop(t, y)`` get ``y`` as a pair, and the stage
tuple is built on every step.  The tableau and the result type are imported
from the package, whose tests pin them to SciPy.  ``reference_solve_ivp`` calls the oracle with the package's
scalar convention ``fun(t, a, b)``.
"""

import math
from warnings import warn

import numpy as np

from shearlab._dopri import (_A21, _A31, _A32, _A41, _A42, _A43, _A51, _A52, _A53, _A54,
                             _A61, _A62, _A63, _A64, _A65, _B1, _B3, _B4, _B5, _B6, _C2,
                             _C3, _C4, _C5, _E1, _E3, _E4, _E5, _E6, _E7, _EPS, _EXPONENT,
                             MAX_FACTOR, MIN_FACTOR, SAFETY, OdeResult)


def reference_solve_ivp(fun, t_span, y0, stop=None, **options):
    """The oracle on a scalar-convention ``fun(t, a, b)`` and ``stop(t, a, b)``."""
    tuple_stop = None if stop is None else (lambda t, y: stop(t, *y))
    return solve_ivp(lambda t, y: fun(t, *y), t_span, y0, stop=tuple_stop, **options)


def _rms(x0, x1):
    return math.sqrt(x0 * x0 + x1 * x1) / math.sqrt(2.0)   # as np.linalg.norm(x) / 2 ** 0.5


def solve_ivp(fun, t_span, y0, first_step, stop=None, rtol=1e-3, atol=1e-6,
              max_step=math.inf):
    """Integrate y' = fun(t, y) for a 2-component y forward over ``t_span``.

    ``fun`` gets a tuple of two floats and returns two numbers.  The solve
    ends after the first accepted step whose end satisfies ``stop(t, y)``
    (status 1), from a first trial step of ``first_step``.  A step below the
    minimum returns status -1.
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

    ya, yb = (float(v) for v in y0)
    fa, fb = fun(t, (ya, yb))

    return _steps(fun, t, t_bound, ya, yb, fa, fb, first_step, 1, stop, rtol, atol, max_step)


def _steps(fun, t, t_bound, ya, yb, fa, fb, h_abs, nfev, stop, rtol, atol, max_step):
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

        ts.append(t_new)
        ays.append(na)
        bys.append(nb)
        if stop is not None and stop(t_new, (na, nb)):
            status = 1
        elif t_new >= t_bound:
            status = 0

        t, ya, yb, fa, fb = t_new, na, nb, ka7, kb7

    return OdeResult(t=np.array(ts), y=np.array([ays, bys]), status=status, nfev=nfev)
