"""Order statistics the benchmark reports."""

from __future__ import annotations

import statistics

TAIL_BEYOND = 10


def tail(samples) -> tuple[float, float, int]:
    """Latency at the highest percentile that has at least ``TAIL_BEYOND`` samples above it.

    With n sorted samples that is the (n - TAIL_BEYOND)-th smallest, i.e. the
    percentile 100 * (n - TAIL_BEYOND) / n. Returns ``(value, percentile, n)``.
    Fewer than ``TAIL_BEYOND + 1`` samples have no such percentile: ValueError.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        raise ValueError(f"need more than {TAIL_BEYOND} samples for a tail percentile, got {n}")
    k = n - TAIL_BEYOND
    return ordered[k - 1], 100.0 * k / n, n


def spread(values) -> float:
    """Inter-quartile distance as a share of the median (``statistics.quantiles``, n=4)."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median
