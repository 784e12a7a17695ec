"""Arrival-process statistics: how bursty an arrival stream is.

The paper's premise is "highly correlated service request arrivals at
the start of a live event"; :func:`burstiness_index` measures that
correlation on a generated stream.
"""

from __future__ import annotations

from typing import Sequence


def burstiness_index(arrivals: Sequence[float], bin_width: float) -> float:
    """Peak-to-mean ratio of per-bin arrival counts.

    A Poisson stream scores near 1 + O(1/sqrt(mean)); a flash crowd
    scores far higher.  Experiments use this to demonstrate that the
    generated workload actually *is* bursty in the way the paper's
    premise requires.
    """
    if not arrivals:
        return 0.0
    start, end = min(arrivals), max(arrivals)
    if end == start:
        return float(len(arrivals))
    n_bins = max(1, int((end - start) / bin_width))
    counts = [0] * n_bins
    for t in arrivals:
        index = min(n_bins - 1, int((t - start) / bin_width))
        counts[index] += 1
    mean = sum(counts) / len(counts)
    return max(counts) / mean if mean > 0 else 0.0
