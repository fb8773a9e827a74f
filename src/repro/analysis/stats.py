"""Distribution statistics for load analysis.

Used by the load-distribution ablation and available to downstream users
inspecting per-peer work (e.g. :meth:`repro.sim.metrics.SimMetrics.
served_distribution`).  Pure-Python implementations, exact definitions.
"""

from __future__ import annotations

import math
from typing import Sequence


def gini(values: Sequence[float]) -> float:
    """Gini coefficient of a non-negative distribution.

    0 = perfectly equal, →1 = fully concentrated.  Computed from the sorted
    cumulative form; an all-zero (or empty) distribution is defined as 0.
    """
    if any(v < 0 for v in values):
        raise ValueError("gini is defined for non-negative values")
    ordered = sorted(values)
    n = len(ordered)
    total = sum(ordered)
    if n == 0 or total == 0:
        return 0.0
    weighted = sum(i * v for i, v in enumerate(ordered, start=1))
    return (2.0 * weighted) / (n * total) - (n + 1.0) / n


def pearson(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Pearson correlation coefficient; 0 when either series is constant."""
    if len(xs) != len(ys):
        raise ValueError("series must have equal length")
    n = len(xs)
    if n == 0:
        raise ValueError("series must be non-empty")
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    cov = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    sd_x = math.sqrt(sum((x - mean_x) ** 2 for x in xs))
    sd_y = math.sqrt(sum((y - mean_y) ** 2 for y in ys))
    if sd_x == 0 or sd_y == 0:
        return 0.0
    return cov / (sd_x * sd_y)


def top_share(values: Sequence[float], fraction: float = 0.1) -> float:
    """Share of the total held by the top ``fraction`` of entries.

    ``fraction=0.1`` answers "what do the top 10% carry?".  At least one
    entry is always counted, so tiny populations behave sensibly.
    """
    if not 0 < fraction <= 1:
        raise ValueError("fraction must be in (0, 1]")
    ordered = sorted(values, reverse=True)
    total = sum(ordered)
    if not ordered or total == 0:
        return 0.0
    k = max(1, int(len(ordered) * fraction))
    return sum(ordered[:k]) / total
