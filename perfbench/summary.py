"""Order statistics for benchmark samples."""

from __future__ import annotations

import math
import statistics
from fractions import Fraction

# Percentiles a tail is reported at, highest first.
TAIL_LADDER = (99.9, 99.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10


def rank(p: float, n: int) -> int:
    """Nearest-rank position (1-based) of the p-th percentile of n samples."""
    return max(1, math.ceil(Fraction(str(p)) * n / 100))


def tail_percentile(n: int) -> float | None:
    """The highest percentile in the ladder with ten samples beyond it.

    None when no percentile has that many samples beyond it (n < 20).
    """
    for p in TAIL_LADDER:
        if n - rank(p, n) >= TAIL_MIN_BEYOND:
            return p
    return None


def percentile(values, p: float) -> float:
    ordered = sorted(values)
    return ordered[rank(p, len(ordered)) - 1]


def describe(values) -> str:
    """Median, tail percentile when one exists, and the sample count."""
    values = list(values)
    text = f"median {statistics.median(values):.6g}"
    p = tail_percentile(len(values))
    if p is None:
        text += ", no tail percentile"
    else:
        text += f", p{p:g} {percentile(values, p):.6g}"
    return text + f", n={len(values)}"
