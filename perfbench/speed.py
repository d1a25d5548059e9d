"""The machine's speed at the moment, from fixed work that no change to shearlab can alter.

The reference machine (2 vCPUs shared with other tenants) runs the same op up
to 2x slower from one second to the next and drifts by tens of percent over
minutes; CPU time swings with wall time, so the cause is contention for the
cores, not waiting. The benchmark times a small fixed kernel next to every op
and scales the op's times to the speed at which the kernel takes
``REFERENCE_S``. The kernel does the kinds of work the CLI pipelines do, in
code outside the program: a scalar right-hand side under RK45 (as ``orbit``
and ``stability``), explicit steps of a vector right-hand side (as
``pdesim``), and float formatting (as ``csvio``). It allocates nothing that
outlives it: SciPy's LSODA on 4096 unknowns grows the resident set by about
0.45 MB a call, so the kernel does not use it.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np
from scipy.integrate import solve_ivp

REFERENCE_S = 0.035      # the kernel's time on the reference machine at full speed

_HEAT0 = 1.0 + 0.1 * np.sin(np.linspace(0.0, 3.0, 4096))
_FORMAT = np.linspace(0.0, 1.0, 10000)


def _scalar_rhs(t, y):
    return (-0.5 * y[0] + 2.0 * y[1], y[0] - 0.7 * y[1])


def _vector_rhs(y):
    d = np.empty_like(y)
    d[1:-1] = (y[2:] - 2.0 * y[1:-1] + y[:-2]) * 10.0
    d[0] = d[-1] = 0.0
    return d - 0.01 * np.log1p(y * y)


def kernel() -> None:
    solve_ivp(_scalar_rhs, (0.0, 7.5), (1.0, 1.0), method="RK45", rtol=1e-10,
              atol=1e-14, max_step=0.02)
    y = _HEAT0
    for _ in range(400):
        y = y + 1e-3 * _vector_rhs(y)
    "\n".join(f"{x:.17g},{2.0 * x:.17g}" for x in _FORMAT)


def machine_speed() -> float:
    """REFERENCE_S over the kernel's time now: 1 at full speed, lower when contended."""
    start = perf_counter()
    kernel()
    return REFERENCE_S / (perf_counter() - start)
