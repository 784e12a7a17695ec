"""The P2P live-streaming overlay substrate.

The paper's DRM rides on the P2P network of reference [6] (Zattoo's
receiver-based peer-division multiplexing).  This package implements
the pieces the DRM interacts with:

* :mod:`repro.p2p.peer` -- a peer: join admission (Channel Ticket
  verification), per-link session keys, content/key forwarding, and
  child-expiry enforcement;
* :mod:`repro.p2p.overlay` -- a per-channel overlay: peer registry,
  peer-list sampling for the Channel Manager, tree construction and
  repair under churn, invariants;
* :mod:`repro.p2p.substreams` -- peer-division multiplexing: the
  stream split into sub-streams delivered over (possibly) different
  parents;
* :mod:`repro.p2p.churn` -- join/leave processes for simulations.
"""

from repro.p2p.peer import Peer, ChildLink
from repro.p2p.overlay import ChannelOverlay
from repro.p2p.substreams import SubstreamAssignment

__all__ = [
    "Peer",
    "ChildLink",
    "ChannelOverlay",
    "SubstreamAssignment",
]
