"""Latency sample collection, binned the way the paper analyses it.

Samples are (time, round, latency) triples.  The collector answers the
two questions the evaluation asks:

* Fig. 5: per-hour median latency per protocol round, alongside the
  concurrent-user count in the same hour;
* Fig. 6: the latency CDF per round split into peak (18:00--24:00)
  and off-peak (00:00--18:00) populations.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.metrics.stats import median, pearson_correlation
from repro.workload.diurnal import is_peak_hour


@dataclass
class HourlyBin:
    """Aggregates for one (round, hour-index) cell."""

    hour_index: int
    latencies: List[float] = field(default_factory=list)

    @property
    def count(self) -> int:
        return len(self.latencies)

    @property
    def median_latency(self) -> float:
        return median(self.latencies)


class LatencyCollector:
    """Accumulates protocol-round latency samples over a run."""

    def __init__(self, bin_seconds: float = 3600.0) -> None:
        self.bin_seconds = bin_seconds
        self._samples: Dict[str, List[Tuple[float, float]]] = defaultdict(list)

    def record(self, round_name: str, time: float, latency: float) -> None:
        """Add one sample.

        Rejects non-finite samples explicitly: ``latency < 0`` is
        False for NaN, so without the finiteness check a single NaN
        (or inf) from a broken timer would sail through and silently
        poison every hourly median and the Fig. 5 Pearson statistic
        downstream.
        """
        if not math.isfinite(latency):
            raise ValueError(f"latency must be finite, got {latency}")
        if latency < 0:
            raise ValueError("latency cannot be negative")
        if not math.isfinite(time):
            raise ValueError(f"sample time must be finite, got {time}")
        self._samples[round_name].append((time, latency))

    def count(self, round_name: str) -> int:
        """Samples recorded for a round."""
        return len(self._samples.get(round_name, []))

    def rounds(self) -> List[str]:
        """Round names with at least one sample."""
        return sorted(self._samples.keys())

    def latencies(self, round_name: str) -> List[float]:
        """All latencies for one round."""
        return [lat for _, lat in self._samples.get(round_name, [])]

    # ------------------------------------------------------------------
    # Fig. 5 shape: hourly medians vs concurrent users
    # ------------------------------------------------------------------

    def hourly_bins(self, round_name: str) -> List[HourlyBin]:
        """Samples bucketed by hour index, sparse (only non-empty bins)."""
        buckets: Dict[int, HourlyBin] = {}
        for time, latency in self._samples.get(round_name, []):
            index = int(time // self.bin_seconds)
            bucket = buckets.get(index)
            if bucket is None:
                bucket = HourlyBin(hour_index=index)
                buckets[index] = bucket
            bucket.latencies.append(latency)
        return [buckets[i] for i in sorted(buckets)]

    def correlation_with_load(
        self,
        round_name: str,
        concurrency_at: Callable[[float], int],
        min_samples_per_bin: int = 1,
    ) -> float:
        """Pearson r between hourly median latency and hourly load.

        This is exactly the paper's Fig. 5 statistic.  Bins with fewer
        than ``min_samples_per_bin`` samples can be excluded, mirroring
        the paper's note that overnight spikes are "statistically
        insignificant samples".
        """
        medians: List[float] = []
        loads: List[float] = []
        for bucket in self.hourly_bins(round_name):
            if bucket.count < min_samples_per_bin:
                continue
            bin_mid = (bucket.hour_index + 0.5) * self.bin_seconds
            medians.append(bucket.median_latency)
            loads.append(float(concurrency_at(bin_mid)))
        if len(medians) < 2:
            return 0.0
        return pearson_correlation(loads, medians)

    # ------------------------------------------------------------------
    # Fig. 6 shape: peak vs off-peak populations
    # ------------------------------------------------------------------

    def split_peak_offpeak(self, round_name: str) -> "tuple[List[float], List[float]]":
        """(peak, off-peak) latency populations per the paper's split."""
        peak: List[float] = []
        off_peak: List[float] = []
        for time, latency in self._samples.get(round_name, []):
            hour = (time / 3600.0) % 24.0
            if is_peak_hour(hour):
                peak.append(latency)
            else:
                off_peak.append(latency)
        return peak, off_peak
