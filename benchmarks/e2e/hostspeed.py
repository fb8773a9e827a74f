"""Host-speed calibration: time a fixed reference loop beside every unit.

This sandbox shares its cores.  Within an hour the same code runs anywhere
between 1.0x and 1.5x of its quiet speed, in phases that last from seconds
to minutes — longer than a run — so no statistic taken *within* a run can
remove it.  What can: the slow-down is common to everything the interpreter
does, so a fixed piece of pure-Python work timed right before and right after
a unit says how slow the host was *for that unit*.  Dividing the unit's
timings by that factor turns 25-37 % run-to-run ranges into 6-11 % ones
(README, "Steadiness").

Calibrated timings are therefore in *reference seconds*: seconds on a host
that runs :func:`reference_seconds` in :data:`NOMINAL_S`, which is what this
sandbox's 2.1 GHz Xeon does when nothing else runs.  Ratios between two
commits measured this way are ratios of real time; the absolute values are
real time on a quiet host.
"""

from __future__ import annotations

import time

LOOPS = 20_000
NOMINAL_S = 1.10e-3


def reference_seconds() -> float:
    """Wall time of the reference loop, right now, on this core."""
    start = time.perf_counter()
    total = 0
    for value in range(LOOPS):
        total += value * value
    return time.perf_counter() - start


def slowdown(before: float, after: float) -> float:
    """How much slower than nominal the host ran between two readings."""
    return (before + after) / (2 * NOMINAL_S)
