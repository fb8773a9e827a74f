"""Shape predicates for reproduced series.

"Reproducing a figure" here means the *shape* holds — who wins, what rises,
where the peak falls — not that absolute numbers match a 2005 testbed.
These predicates are what the benchmark assertions are written in, with a
tolerance knob for simulation noise.
"""

from __future__ import annotations

from typing import Sequence


def is_increasing(values: Sequence[float], tolerance: float = 0.0) -> bool:
    """True if the series never drops by more than ``tolerance`` (relative)."""
    for previous, current in zip(values, values[1:]):
        floor = previous * (1.0 - tolerance) if previous > 0 else previous - tolerance
        if current < floor:
            return False
    return True


def is_decreasing(values: Sequence[float], tolerance: float = 0.0) -> bool:
    """True if the series never rises by more than ``tolerance`` (relative)."""
    return is_increasing([-v for v in values], tolerance=0.0) or all(
        current <= previous * (1.0 + tolerance) + (tolerance if previous == 0 else 0)
        for previous, current in zip(values, values[1:])
    )


def rises_then_falls(values: Sequence[float], tolerance: float = 0.0) -> bool:
    """True if the series peaks strictly inside the range (unimodal shape).

    The paper's downtime transfer/renewal curves have this shape: the two
    competing forces (more payments vs fewer offline owners) trade dominance
    inside the sweep.
    """
    if len(values) < 3:
        return False
    peak = max(range(len(values)), key=lambda i: values[i])
    if peak == 0 or peak == len(values) - 1:
        return False
    return is_increasing(values[: peak + 1], tolerance) and is_decreasing(values[peak:], tolerance)
