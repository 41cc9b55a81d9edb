"""Order statistics shared by the benchmark and the comparison helper."""

from __future__ import annotations

import statistics

# candidate levels for the tail percentile, highest first
TAIL_LEVELS = (99.9, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0)


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile (numpy's default), q in [0, 100]."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no values")
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_level(n: int) -> float:
    """Highest level in TAIL_LEVELS with at least ten of n samples beyond it."""
    for q in TAIL_LEVELS:
        if n * (1.0 - q / 100.0) >= 10.0:
            return q
    return 50.0


def tail(values, level: float | None = None) -> tuple[float, float, int]:
    """(value, level, samples) of the tail percentile.

    ``level`` fixes the percentile so runs stay comparable; when fewer than
    ten samples lie beyond it, the highest level that has ten is used instead.
    """
    n = len(values)
    q = level if level is not None and n * (1.0 - level / 100.0) >= 10.0 else tail_level(n)
    return percentile(values, q), q, n


def median(values) -> float:
    return statistics.median(values)


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3
