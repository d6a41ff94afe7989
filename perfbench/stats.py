"""Summary statistics the benchmark reports."""

from __future__ import annotations

import math
import statistics
from fractions import Fraction

# Percentiles considered for the tail figure, highest last.
TAIL_PERCENTILES = (50, 75, 90, 95, 99, 99.9)


def summary(samples) -> dict:
    """Sample count, fastest, median, quartiles (as
    `statistics.quantiles(samples, n=4)` gives them, from two samples on)
    and the tail percentile of `samples`."""
    out = {"samples": len(samples), "min": min(samples),
           "median": statistics.median(samples)}
    if len(samples) >= 2:
        out["q1"], _, out["q3"] = statistics.quantiles(samples, n=4)
    tail = tail_percentile(samples)
    if tail:
        out["tail_percentile"], out["tail"] = tail
    return out


def tail_percentile(values) -> tuple[float, float] | None:
    """(percentile, value) for the highest percentile in TAIL_PERCENTILES
    that has at least ten samples beyond it, by the nearest-rank rule; None
    when there are too few samples for any."""
    ordered = sorted(values)
    n = len(ordered)
    best = None
    for q in TAIL_PERCENTILES:
        rank = max(1, math.ceil(Fraction(str(q)) * n / 100))
        if n - rank >= 10:
            best = (q, ordered[rank - 1])
    return best


def min_crystallization_vertices(n: int, m: int) -> int:
    """Vertex count of a minimal crystallization of S^n x S^m."""
    return 2 + 2 * math.comb(n + m, n)


def vertex_excess_ratio(results) -> float:
    """Sum of greedy final vertex counts over the sum of the minima.

    `results` holds ((n, m), final_vertices) pairs; with none, nothing
    exceeds its minimum and the ratio is 1.
    """
    results = list(results)
    if not results:
        return 1.0
    total = sum(v for _, v in results)
    minimum = sum(min_crystallization_vertices(n, m) for (n, m), _ in results)
    return total / minimum
