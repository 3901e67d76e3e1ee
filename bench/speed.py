"""The speed of the CPU a benchmark execution runs on, measured in-process.

The shared host this benchmark was built on runs a virtual CPU up to 40 %
faster or slower for a minute or more at a time, seemingly each virtual CPU
on its own. Every kind of work in an execution speeds up or slows down
alike, so ``child.py`` times a fixed unit of work in the same process
just before and just after the workload, and ``run.py`` reports each time
as ``raw * REFERENCE_UNIT_S / unit_s``: what it would have been on a CPU
on which the unit takes REFERENCE_UNIT_S. The unit uses no feedbeam code,
so no change to the package can move it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# The unit's median time on the 2-core VM the figures in README.md come
# from, in its usual (slower) state.
REFERENCE_UNIT_S = 0.009
CALIBRATION_S = 0.2


def _unit() -> int:
    # Array passes over 512 KB and an interpreter loop: the two kinds of
    # work feedbeam's time goes to.
    x = np.linspace(0.0, 1.0, 1 << 16)
    for _ in range(24):
        x = np.where(x > 0.5, x - 0.5, x + 0.25) * 1.0001
    s = 0
    for i in range(20_000):
        s += i & 7
    return s


def calibrate() -> float:
    """Median time of the unit over CALIBRATION_S seconds."""
    times = []
    end = time.perf_counter() + CALIBRATION_S
    while time.perf_counter() < end:
        t = time.perf_counter()
        _unit()
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def to_reference(seconds: float, unit_s: float) -> float:
    """A time measured where the unit took ``unit_s``, at reference speed."""
    return seconds * REFERENCE_UNIT_S / unit_s
