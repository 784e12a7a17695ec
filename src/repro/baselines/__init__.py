"""Baselines the paper's design is compared against.

* :mod:`repro.baselines.traditional` -- "traditional DRM": per-file
  playback licenses acquired from a central License Manager at
  playback time (Section I).  Under a live event's flash crowd this
  requires peak-load provisioning; the ablation benches quantify the
  queueing collapse the paper's architecture avoids.
* :mod:`repro.baselines.central_keyserver` -- the semi-distributed
  architecture of related work (e.g. ref [18]): content keys fetched
  by every client from a central key server instead of pushed
  peer-to-peer.  Every re-key becomes a synchronized request storm of
  N clients, versus the P2P push's per-link constant cost.
"""

from repro.baselines.traditional import TraditionalDrmSimulation
from repro.baselines.central_keyserver import CentralKeyServer, KeyDistributionComparison

__all__ = [
    "TraditionalDrmSimulation",
    "CentralKeyServer",
    "KeyDistributionComparison",
]
