"""Host-speed reference for in-process work: a fixed task timed next to each operation.

The task is a pure-Python loop plus two small ``scipy.optimize.least_squares``
fits of a fixed erfc curve. It uses nothing of the program, so a change to
the program cannot change its time; only the host's speed can. On a shared
machine the host's speed drifts by 20-30% over seconds to minutes, and an
operation timed right next to the task drifts with it, so the ratio of the
two is far steadier than either time alone.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.optimize import least_squares
from scipy.special import erfc

# median time of task() on the 2-vCPU Intel Xeon virtual machine the benchmark was built on
NOMINAL_S = 0.0085

_AGES = np.arange(63) * 1.25 + 0.625
_TARGET = 0.2 * erfc((25.0 - _AGES) / 3.0) * np.exp(-0.02 * _AGES)
_STARTS = ((0.1, 20.0, 5.0), (0.3, 30.0, 2.0))


def _residuals(p):
    return p[0] * erfc((p[1] - _AGES) / p[2]) * np.exp(-0.02 * _AGES) - _TARGET


def task() -> int:
    total, table = 0, {}
    for i in range(20000):
        total += (i * 7) % 13
        table[i & 255] = total
    for x0 in _STARTS:
        least_squares(_residuals, x0, method="trf", x_scale="jac", xtol=1e-12, ftol=1e-12,
                      gtol=1e-12)
    return total


def speed() -> float:
    """NOMINAL_S over the time task() takes now: above 1 on a host faster than the reference."""
    start = time.perf_counter()
    task()
    return NOMINAL_S / (time.perf_counter() - start)
