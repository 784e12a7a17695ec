"""Statistical primitives used by the evaluation.

Self-contained implementations (no numpy dependency in the library
core) of exactly the statistics the paper reports: medians (Fig. 5),
CDFs (Fig. 6), and the Pearson product-moment correlation coefficient
("ranges from -0.03 to 0.08 for login and channel switching protocols,
and is 0.13 for join protocol", Section VI).
"""

from __future__ import annotations

import math
from typing import Sequence


def median(values: Sequence[float]) -> float:
    """The sample median; raises on empty input."""
    if not values:
        raise ValueError("median of empty sequence")
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    if n % 2 == 1:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile, ``q`` in [0, 100]."""
    if not values:
        raise ValueError("percentile of empty sequence")
    if not 0.0 <= q <= 100.0:
        raise ValueError("q must be in [0, 100]")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (q / 100.0) * (len(ordered) - 1)
    low = int(math.floor(rank))
    high = int(math.ceil(rank))
    if low == high:
        return ordered[low]
    frac = rank - low
    # a + frac*(b - a) is exact when a == b, unlike the two-product
    # form, keeping percentile() monotone in q for repeated values.
    return ordered[low] + frac * (ordered[high] - ordered[low])


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean; raises on empty input."""
    if not values:
        raise ValueError("mean of empty sequence")
    return sum(values) / len(values)


def pearson_correlation(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Pearson product-moment correlation coefficient.

    Returns 0.0 when either series is constant (the limit the paper's
    flat-latency claim approaches: a constant latency series has no
    correlation with load).
    """
    if len(xs) != len(ys):
        raise ValueError("series must have equal length")
    if len(xs) < 2:
        raise ValueError("need at least two points")
    mx, my = mean(xs), mean(ys)
    cov = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    var_x = sum((x - mx) ** 2 for x in xs)
    var_y = sum((y - my) ** 2 for y in ys)
    if var_x == 0.0 or var_y == 0.0:
        return 0.0
    return cov / math.sqrt(var_x * var_y)


def cdf_at(values: Sequence[float], threshold: float) -> float:
    """Fraction of samples <= threshold."""
    if not values:
        raise ValueError("cdf of empty sequence")
    return sum(1 for v in values if v <= threshold) / len(values)


def ks_distance(a: Sequence[float], b: Sequence[float]) -> float:
    """Two-sample Kolmogorov--Smirnov statistic.

    Used to quantify Fig. 6's "virtually identical" claim: the KS
    distance between peak and off-peak latency distributions should be
    small.
    """
    if not a or not b:
        raise ValueError("ks distance of empty sequence")
    sa, sb = sorted(a), sorted(b)
    ia = ib = 0
    distance = 0.0
    while ia < len(sa) and ib < len(sb):
        # Advance past all samples equal to the smaller current value
        # on BOTH sides before measuring -- otherwise ties inflate the
        # statistic mid-step.
        x = min(sa[ia], sb[ib])
        while ia < len(sa) and sa[ia] == x:
            ia += 1
        while ib < len(sb) and sb[ib] == x:
            ib += 1
        distance = max(distance, abs(ia / len(sa) - ib / len(sb)))
    return distance
