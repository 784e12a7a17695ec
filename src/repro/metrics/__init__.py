"""Measurement and reporting: the statistics behind Figs. 5 and 6.

* :mod:`repro.metrics.stats` -- medians, percentiles, CDFs, and the
  Pearson product-moment correlation the paper reports;
* :mod:`repro.metrics.collector` -- timestamped latency samples binned
  by protocol round and by hour, plus peak/off-peak splits;
* :mod:`repro.metrics.reporting` -- plain-text tables and figure
  series shaped like the paper's plots;
* :mod:`repro.metrics.hotpath` -- counters for the ticket pipeline's
  fast paths (CRT signing, the verification cache, compiled policy
  indexes);
* :mod:`repro.metrics.counters` -- the reset/snapshot/merge/delta
  mixin every counter block shares;
* :mod:`repro.metrics.registry` -- one front door over every counter
  source (hot path, durability stores, links, tracer).
"""

from repro.metrics.stats import (
    median,
    percentile,
    pearson_correlation,
    cdf_points,
)
from repro.metrics.collector import LatencyCollector, HourlyBin
from repro.metrics.dataplane import DataplaneCounters, counters as dataplane_counters
from repro.metrics.hotpath import HotpathCounters, counters as hotpath_counters
from repro.metrics.registry import MetricsRegistry, registry

__all__ = [
    "median",
    "percentile",
    "pearson_correlation",
    "cdf_points",
    "LatencyCollector",
    "HourlyBin",
    "DataplaneCounters",
    "dataplane_counters",
    "HotpathCounters",
    "hotpath_counters",
    "MetricsRegistry",
    "registry",
]
