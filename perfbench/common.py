"""Pieces shared by the workloads: the operation recorder and small statistics.

Standard library only, so that a worker for the CLI workload pays for no
numerical import the user's commands would not pay for.
"""

from __future__ import annotations

import math
import statistics
import subprocess
import time

# The fitter's multi-start seed. It is fixed and separate from the workload
# seed, so a new workload seed changes the inputs only.
FIT_SEED = 1

GROWTH_RATE = 0.022  # 1/h, the growth rate of the shipped data
BIN_WIDTH = 1.25  # h, bin width of the shipped histogram
N_BINS = 63

# Reference four-parameter model of the shipped data (scripts/generate_example_data.py).
REFERENCE = {"family": "erfc-mu", "beta0": 0.17879, "m": 25.007, "sigma": 3.6141, "mu": 0.00333}

# Host-speed reference for work in fresh interpreters: a new process that
# imports the program's numerical dependencies and nothing of the program.
IMPORT_REFERENCE = "import numpy, scipy.integrate, scipy.optimize, scipy.special"
# its median time on the 2-vCPU Intel Xeon virtual machine the benchmark was built on
IMPORT_REFERENCE_S = 0.80


def import_speed(python: str, env: dict, cwd) -> float:
    """IMPORT_REFERENCE_S over the time a fresh interpreter takes for IMPORT_REFERENCE now."""
    start = time.perf_counter()
    subprocess.run([python, "-c", IMPORT_REFERENCE], cwd=cwd, env=env, capture_output=True,
                   check=True, timeout=60)
    return IMPORT_REFERENCE_S / (time.perf_counter() - start)


class Recorder:
    """Times each operation a workload issues and counts the ones that fail.

    An operation fails when it raises or when its check returns a message.
    Rows are ``[pass_id, name, seconds, ok, info]``; ``info`` holds counters
    a workload attaches (evaluations, exit code).

    With a ``speed`` callable, each operation is bracketed by calls to it;
    each call times a fixed reference task and returns its nominal time over
    the time it took. The row's seconds are then the operation's time scaled
    by the geometric mean of the two speeds, and ``info["raw_s"]`` keeps the
    time as measured. The speed after one operation is the speed before the
    next, so the reference runs once per operation.
    """

    MAX_ERRORS = 5

    def __init__(self, tracer=None, speed=None):
        self.ops: list[list] = []
        self.errors: list[str] = []
        self.tracer = tracer
        self.speed = speed
        self.last_speed = None
        self.pass_id = 0

    def op(self, name: str, fn, *args, check=None, **kwargs):
        """Run ``fn(*args, **kwargs)`` as one timed operation; None if it raised."""
        tracer = self.tracer
        before = None
        if self.speed is not None:
            before = self.last_speed or self.speed()
        span = tracer.open("op", name) if tracer is not None else None
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            error = None
        except Exception as exc:  # a failing operation is counted, not fatal
            result, error = None, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.close(span)
        if error is None and check is not None:
            try:
                error = check(result)
            except Exception as exc:  # e.g. an output file the command never wrote
                error = f"check failed with {type(exc).__name__}: {exc}"
        info = {"error": error.split(":", 1)[0]} if error else {}
        if before is not None:
            self.last_speed = self.speed()
            info["raw_s"] = elapsed
            elapsed *= math.sqrt(before * self.last_speed)
        self.ops.append([self.pass_id, name, elapsed, error is None, info])
        if error is not None and len(self.errors) < self.MAX_ERRORS:
            self.errors.append(f"{name}: {error}")
        return result

    def note(self, **info) -> None:
        """Attach counters to the last operation."""
        self.ops[-1][4].update(info)

    @property
    def failed(self) -> int:
        return sum(1 for row in self.ops if not row[3])


def percentile(values, q: float) -> float:
    """q-th percentile, interpolating linearly between order statistics."""
    values = sorted(values)
    position = (len(values) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(values) - 1)
    return values[low] + (values[high] - values[low]) * (position - low)


def tail_percentile(n: int) -> float | None:
    """Highest of the reported percentiles that has at least ten samples beyond it."""
    for q in (99.9, 99.0, 95.0, 90.0, 50.0):
        if n * (1.0 - q / 100.0) >= 10.0:
            return q
    return None


def median(values) -> float:
    return statistics.median(values)
