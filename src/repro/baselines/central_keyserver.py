"""Centralized key distribution baseline (related-work style, ref [18]).

The semi-distributed P2P-IPTV DRM architectures the paper cites keep
"license and key distributions ... centralized": every client fetches
each rotating content key from a key server.  With an N-client
audience and a T-second re-key interval the server absorbs N requests
every T seconds, *synchronized* (everyone needs the new key before the
same activation instant) -- a periodic flash crowd.

The paper's design instead pushes each key down the overlay pair-wise:
each peer performs one symmetric re-encryption per child, so the
infrastructure cost is O(source fan-out) per re-key regardless of N.

:class:`KeyDistributionComparison` quantifies both sides for ablation
A2: server request load and client key-arrival timeliness vs audience
size.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.sim.engine import Simulator
from repro.sim.station import ServiceStation


@dataclass
class CentralKeyServer:
    """A key server absorbing one synchronized re-key request storm.

    ``n_servers`` and ``service_time`` define capacity; clients all
    wake within ``stagger`` seconds of the key release (clients jitter
    their fetches to avoid perfect synchronization -- the standard
    mitigation, which only spreads, never removes, the load).
    """

    n_servers: int
    service_time: float = 0.002
    stagger: float = 5.0

    def rekey_storm(self, rng: random.Random, clients: int) -> "StormResult":
        """Simulate one re-key: every client fetches the new key."""
        sim = Simulator()
        station = ServiceStation(
            sim,
            n_servers=self.n_servers,
            mean_service_time=self.service_time,
            rng=rng,
            name="key-server",
        )
        waits: List[float] = []
        for _ in range(clients):
            offset = rng.uniform(0.0, self.stagger)
            sim.schedule_at(
                offset,
                lambda s, st=station: st.submit(
                    on_complete=lambda _s, sojourn: waits.append(sojourn)
                ),
            )
        sim.run()
        waits.sort()
        n = len(waits)
        return StormResult(
            clients=clients,
            server_requests=clients,
            mean_wait=sum(waits) / n if n else 0.0,
            p99_wait=waits[int(0.99 * (n - 1))] if n else 0.0,
            max_wait=waits[-1] if n else 0.0,
        )


@dataclass
class StormResult:
    """Per-re-key load and delay at the central key server."""

    clients: int
    server_requests: int
    mean_wait: float
    p99_wait: float
    max_wait: float


@dataclass
class PushResult:
    """Per-re-key cost of the paper's P2P push for the same audience."""

    clients: int
    server_messages: int  # messages the *infrastructure* sends
    total_link_messages: int  # messages anywhere in the overlay
    tree_depth: int
    propagation_p99: float  # time for the key to reach the deepest peers


class KeyDistributionComparison:
    """Central fetch vs P2P push, matched audience and re-key interval."""

    def __init__(
        self,
        rng: random.Random,
        fanout: int = 4,
        hop_latency: float = 0.040,
        reencrypt_time: float = 0.0002,
    ) -> None:
        if fanout < 2:
            raise ValueError("fanout must be at least 2")
        self._rng = rng
        self.fanout = fanout
        self.hop_latency = hop_latency
        self.reencrypt_time = reencrypt_time

    def p2p_push(self, clients: int, source_fanout: int = 16) -> PushResult:
        """Analytic cost of one pushed re-key through a balanced tree.

        Every peer (and the source) sends one message per child; the
        tree has ``clients`` nodes below the source.  Propagation time
        to depth d is d hops of (latency + per-child re-encryption).
        """
        if clients <= 0:
            return PushResult(clients=0, server_messages=0, total_link_messages=0, tree_depth=0, propagation_p99=0.0)
        # Depth of a balanced tree: source fans to source_fanout, then
        # each peer fans to self.fanout.
        remaining = clients - min(clients, source_fanout)
        depth = 1
        level = min(clients, source_fanout)
        while remaining > 0:
            level *= self.fanout
            taken = min(remaining, level)
            remaining -= taken
            depth += 1
        per_hop = self.hop_latency + self.fanout * self.reencrypt_time
        return PushResult(
            clients=clients,
            server_messages=min(clients, source_fanout),
            total_link_messages=clients,  # every peer has exactly one inbound key message per parent link (single-parent tree)
            tree_depth=depth,
            propagation_p99=depth * per_hop,
        )

    def central_fetch(self, clients: int, n_servers: int) -> StormResult:
        """One synchronized fetch storm at the central server."""
        server = CentralKeyServer(n_servers=n_servers)
        return server.rekey_storm(self._rng, clients)
