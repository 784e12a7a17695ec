"""Order statistics shared by the runner and ``compare.py``."""

from __future__ import annotations

import math
import statistics
from typing import Dict, Sequence


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 100]."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def summary(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and the quartile distance as a share of the median.

    The spread is the one the benchmark contract uses: the distance
    between ``statistics.quantiles(values, n=4)``'s first and third
    cut points, divided by the median.
    """
    median = statistics.median(values)
    if len(values) < 2:
        return {"median": median, "q1": median, "q3": median, "spread": 0.0, "n": len(values)}
    q1, _, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / abs(median) if median else math.inf
    return {"median": median, "q1": q1, "q3": q3, "spread": spread, "n": len(values)}


def worse_by(before: float, after: float, better: str) -> float:
    """How much worse ``after`` is than ``before``, as a share of ``before``.

    Positive = worse, negative = better, whichever direction is good.
    """
    if before == 0:
        return 0.0 if after == 0 else math.inf
    change = (after - before) / abs(before)
    return change if better == "lower" else -change
