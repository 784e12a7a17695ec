"""Workload generation: who watches what, when.

The paper's evaluation rests on one week of production traffic with a
strong diurnal shape (peak 18:00--24:00) and flash crowds at event
starts.  This package synthesizes equivalent traffic:

* :mod:`repro.workload.diurnal` -- the hour-of-day rate curve;
* :mod:`repro.workload.arrivals` -- the burstiness of an arrival
  stream;
* :mod:`repro.workload.flashcrowd` -- the flash-crowd viewer
  population (regions by population weight, heterogeneous upload
  capacities) driving the overlay locality storm;
* :mod:`repro.workload.zapping` -- per-session behaviour: Zipf channel
  popularity, channel-switching (zapping) dynamics, session lengths;
* :mod:`repro.workload.traces` -- week-long per-user request traces
  and the opt-in feedback-log sampler mirroring the paper's data
  collection methodology (Section VI).
"""

from repro.workload.diurnal import DiurnalProfile
from repro.workload.flashcrowd import FlashCrowdWorkload, ViewerSpec
from repro.workload.zapping import ZipfChannelPopularity, ZappingModel
from repro.workload.traces import RequestEvent, WeekTraceGenerator, FeedbackLogSampler

__all__ = [
    "DiurnalProfile",
    "FlashCrowdWorkload",
    "ViewerSpec",
    "ZipfChannelPopularity",
    "ZappingModel",
    "RequestEvent",
    "WeekTraceGenerator",
    "FeedbackLogSampler",
]
