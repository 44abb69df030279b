"""Summary statistics shared by the benchmark and its tests."""

from __future__ import annotations

import math
import statistics
from typing import Sequence

#: A percentile is reported only with at least this many samples
#: strictly beyond it.
MIN_BEYOND = 10


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """First quartile, median, third quartile, as
    ``statistics.quantiles(values, n=4)`` gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2


def rank_value(ordered: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(
    samples: Sequence[float], wanted: int = 99, min_beyond: int = MIN_BEYOND
) -> tuple[int, float, int] | None:
    """``(percentile, value, sample count)`` for the highest whole
    percentile at most *wanted* that has *min_beyond* samples strictly
    beyond its rank; ``None`` when even the median has fewer."""
    ordered = sorted(samples)
    n = len(ordered)
    for pct in range(wanted, 49, -1):
        rank = max(1, math.ceil(pct / 100.0 * n))
        if n - rank >= min_beyond:
            return pct, ordered[rank - 1], n
    return None
