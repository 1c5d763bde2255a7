"""Order statistics of the report: medians, tails, geometric means.

Each returns ``None`` when there is nothing to summarise, and the report
prints such a metric as missing rather than as a made-up 0.
"""

from __future__ import annotations

import math
import statistics
from collections.abc import Sequence

#: A tail percentile leaves at least this many samples beyond it.
TAIL_MARGIN = 10


def median(values: Sequence[float]) -> float | None:
    return statistics.median(values) if values else None


def tail(values: Sequence[float]) -> tuple[float, float] | None:
    """``(percentile, value)`` of the highest percentile with at least
    :data:`TAIL_MARGIN` samples beyond it — the median when there are too
    few samples for that percentile to lie above it."""
    if not values:
        return None
    ordered = sorted(values)
    rank = len(ordered) - 1 - TAIL_MARGIN
    if rank < len(ordered) // 2:
        return 50.0, statistics.median(ordered)
    return 100.0 * (rank + 1) / len(ordered), ordered[rank]


def geomean(values: Sequence[float]) -> float | None:
    if not values:
        return None
    return math.exp(sum(math.log(value) for value in values) / len(values))


def ratio(numerator: float | None, denominator: float | None) -> float | None:
    if numerator is None or not denominator:
        return None
    return numerator / denominator
