"""Order statistics shared by the runner, the collector and the compare tool."""

from __future__ import annotations

import statistics
from typing import Sequence, Tuple

__all__ = ["percentile", "quartiles", "relative_spread"]


def percentile(values: Sequence[float], fraction: float) -> float:
    """The ``fraction`` quantile by linear interpolation between order statistics."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    position = fraction * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(first quartile, median, third quartile), as ``statistics.quantiles`` gives them."""
    if len(values) < 2:
        only = float(values[0])
        return only, only, only
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def relative_spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median (0 when the median is 0)."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else 0.0
