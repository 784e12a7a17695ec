"""Flash-crowd overlay storm: ranked peer lists under join pressure.

Drives a multi-region flash-crowd audience (steep ramp, mid-event
churn) through the *real* control plane -- redirection lookup, LOGIN,
SWITCH1/2 against the Channel Manager's peer-list pipeline, JOIN
admission at actual overlay peers, churn repair through
``remove_peer`` -- while a virtual clock prices every network exchange
with the WAN model (:mod:`repro.sim.network`).  Nothing here is a
queueing abstraction: every join really walks the list the CM built,
so a worse peer-list policy produces more refusals, deeper trees, and
longer chains, and the latencies price that.

Each viewer's join is one trace: a ``JOIN_E2E`` root with REDIRECT ->
SWITCH -> JOIN -> FIRSTPKT phase spans (explicit virtual times), so
the p50/p99 join latency decomposes exactly into where it was spent.
Key-distribution latency is priced along each viewer's actual
sub-stream-0 parent chain (per-hop regions known, so same-region hops
cost same-region RTTs), and repair time is priced from the overlay's
``repair_log`` (a list re-fetch plus the recorded join attempts).

The driver is deployment-shaped, not overlay-shaped: pass
``partitions > 1`` and the same storm runs against the sharded manager
tier (consistent-hash channel placement) unchanged.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.crypto.drbg import HmacDrbg
from repro.crypto.rsa import generate_keypair
from repro.deployment import Deployment
from repro.errors import CapacityError, ReproError
from repro.metrics.selection import counters as selection_counters
from repro.metrics.stats import percentile
from repro.p2p.peer import Peer
from repro.sim.network import LatencyModel, peer_rtt, zattoo_like_rtt_table
from repro.trace.span import Tracer
from repro.workload.flashcrowd import FlashCrowdWorkload

#: Data-centre site name in the Zattoo-shaped RTT table.
SITE = "dc-eu"


@dataclass
class OverlayStormConfig:
    """Knobs for one storm arm.

    ``event_duration`` defaults short enough that mid-event departures
    (and therefore churn repairs) land inside the 900 s Channel Ticket
    lifetime -- orphans re-present their ticket at repair time.
    """

    viewers: int = 600
    seed: int = 23
    channel: str = "flash"
    regions: Tuple[str, ...] = ("CH", "DE", "FR", "UK")
    sampler: str = "ranked"  # "ranked" | "uniform"
    event_duration: float = 600.0
    ramp: float = 90.0
    mid_departure_fraction: float = 0.15
    source_capacity: int = 32
    #: Times a joiner returns to the CM for a fresh list after every
    #: candidate refused, before giving up.
    max_list_fetches: int = 4
    #: >1 stands the storm up against the sharded manager tier.
    partitions: int = 1
    #: Also attach the tracer to the protocol components (client/CM
    #: spans nest under the storm's phase spans).  Off by default: at
    #: 10k viewers the protocol spans alone would blow the span budget.
    trace_protocol: bool = False
    #: Run ``CandidateIndex.verify_against(overlay)`` every
    #: ``verify_every`` workload events (and once at the end): the
    #: index must mirror the overlay exactly or the storm aborts.
    #: The check is O(n) -- smoke-size storms and CI only.
    verify_index: bool = False
    verify_every: int = 2000


@dataclass
class OverlayStormResult:
    """Everything the benchmarks and the CLI report about one arm."""

    config: OverlayStormConfig
    tracer: Tracer
    deployment: Deployment
    #: End-to-end per-viewer join latency (redirect -> first packet), s.
    join_latencies: List[float] = field(default_factory=list)
    #: Per-phase latencies, keyed REDIRECT/SWITCH/JOIN/FIRSTPKT.
    phases: Dict[str, List[float]] = field(default_factory=dict)
    #: Per-viewer key-distribution latency along the parent chain, s.
    key_dist_latencies: List[float] = field(default_factory=list)
    #: Per-orphan repair time (list re-fetch + join attempts), s.
    repair_times: List[float] = field(default_factory=list)
    repairs_local: int = 0
    repairs_failed: int = 0
    join_failures: int = 0
    joined: int = 0
    departed: int = 0
    #: Fraction of successful joins whose sub-stream-0 parent shares
    #: the viewer's region (the source never counts as local).
    parent_locality: float = 0.0
    mean_depth: float = 0.0
    max_depth: int = 0
    #: Selection-plane counter growth over this arm (see
    #: :mod:`repro.metrics.selection`): how many candidates the
    #: peer-list pipeline examined per request, index vs. scan.
    selection: Dict[str, int] = field(default_factory=dict)
    #: Index self-checks run (``verify_index`` arms only).
    index_verifications: int = 0

    def as_dict(self) -> Dict[str, object]:
        def stats(values: List[float]) -> Dict[str, float]:
            if not values:
                return {"count": 0, "p50": 0.0, "p99": 0.0, "mean": 0.0}
            return {
                "count": len(values),
                "p50": round(percentile(values, 50), 4),
                "p99": round(percentile(values, 99), 4),
                "mean": round(sum(values) / len(values), 4),
            }

        repairs_total = len(self.repair_times) + self.repairs_failed
        return {
            "sampler": self.config.sampler,
            "viewers": self.config.viewers,
            "joined": self.joined,
            "join_failures": self.join_failures,
            "departed": self.departed,
            "join_latency": stats(self.join_latencies),
            "phases": {name: stats(values) for name, values in self.phases.items()},
            "key_dist_latency": stats(self.key_dist_latencies),
            "repair_time": stats(self.repair_times),
            "repairs_failed": self.repairs_failed,
            "repair_locality": round(
                self.repairs_local / repairs_total, 3
            ) if repairs_total else 0.0,
            "parent_locality": round(self.parent_locality, 3),
            "mean_depth": round(self.mean_depth, 2),
            "max_depth": self.max_depth,
            "spans": len(self.tracer.spans),
            "selection": dict(self.selection),
            "candidates_per_request": (
                round(
                    self.selection.get("candidates_considered", 0)
                    / self.selection["requests"],
                    2,
                )
                if self.selection.get("requests")
                else 0.0
            ),
            "index_verifications": self.index_verifications,
        }


def _chain_one_way(
    overlay, peer: Peer, rng: random.Random, max_hops: int = 128
) -> float:
    """One-way delay from the source to ``peer`` along the sub-stream-0
    parent chain -- the path the rotating content key (and the first
    decryptable packet) actually travels."""
    total = 0.0
    node = peer
    substream = overlay.substreams.substreams()[0]
    for _ in range(max_hops):
        plan = overlay.plans.get(node.peer_id)
        if plan is None:
            break
        parent_id = plan.parent_of(substream)
        if parent_id is None:
            break
        try:
            parent = overlay.lookup(parent_id)
        except Exception:
            break
        same_region = parent.region == node.region
        total += peer_rtt(rng, same_region) / 2.0
        if parent_id == overlay.source.peer_id:
            break
        node = parent
    return total


def run_overlay_storm(config: OverlayStormConfig) -> OverlayStormResult:
    """Run one storm arm; deterministic under the config's seed."""
    if config.sampler not in ("ranked", "uniform"):
        raise ReproError(f"unknown sampler arm: {config.sampler!r}")
    rng = random.Random(config.seed)
    if config.partitions > 1:
        deployment = Deployment(
            seed=config.seed,
            n_domains=config.partitions,
            partitions=tuple(f"part-{i}" for i in range(config.partitions)),
            source_capacity=config.source_capacity,
        )
        deployment.enable_sharding()
    else:
        deployment = Deployment(seed=config.seed, source_capacity=config.source_capacity)
    deployment.add_free_channel(config.channel, regions=list(config.regions))
    if config.sampler == "uniform":
        deployment.use_uniform_peer_lists()

    # All times are passed explicitly (virtual clock).  The default
    # span budget fits the 600-viewer smoke; a 100k-viewer arm emits
    # ~6 spans per join, so scale the ceiling with the audience.
    tracer = Tracer(max_spans=max(200_000, config.viewers * 8))
    if config.trace_protocol:
        deployment.enable_tracing(tracer)

    latency = LatencyModel(
        random.Random(rng.randrange(2**63)), table=zattoo_like_rtt_table()
    )
    link_rng = random.Random(rng.randrange(2**63))
    workload = FlashCrowdWorkload(
        random.Random(rng.randrange(2**63)),
        audience=config.viewers,
        regions=config.regions,
        event_duration=config.event_duration,
        ramp=config.ramp,
        mid_departure_fraction=config.mid_departure_fraction,
    )
    # The whole synthetic fleet shares one client RSA key: per-viewer
    # keygen is ~16 ms of pure setup cost and irrelevant to overlay
    # behaviour, and skipping it is what makes 10k-viewer arms feasible.
    fleet_key = generate_keypair(
        HmacDrbg(b"overlay-storm", b"fleet-key"), bits=deployment.key_bits
    )

    overlay = deployment.overlay(config.channel)
    result = OverlayStormResult(config=config, tracer=tracer, deployment=deployment)
    phases: Dict[str, List[float]] = {
        "REDIRECT": [], "SWITCH": [], "JOIN": [], "FIRSTPKT": []
    }
    peers: Dict[int, Peer] = {}
    local_parents = 0
    horizon = workload.churn.event_end
    selection_mark = selection_counters.snapshot()
    events_processed = 0

    for event, spec in workload.events():
        if event.time > horizon:
            break
        events_processed += 1
        if config.verify_index and events_processed % config.verify_every == 0:
            overlay.index.verify_against(overlay)
            result.index_verifications += 1
        if event.kind == "leave":
            peer = peers.pop(spec.index, None)
            if peer is None or peer.peer_id not in overlay.peers:
                continue  # never joined, or already severed
            log_mark = overlay.repair_log.total
            overlay.remove_peer(peer.peer_id, now=event.time)
            result.departed += 1
            for record in overlay.repair_log.since(log_mark):
                # Price the orphan's repair: one list re-fetch at the
                # CM, then the recorded number of JOIN attempts.  The
                # final (accepted) attempt's locality is known from the
                # record; earlier refusals are priced as same-region
                # tries under ranked lists and cross-region under
                # uniform -- matching what each policy actually serves.
                orphan = overlay.peers.get(record.orphan_id)
                orphan_region = orphan.region if orphan is not None else "CH"
                repair = latency.sample_rtt(orphan_region, SITE)
                for attempt in range(record.attempts):
                    final = attempt == record.attempts - 1
                    same = record.same_region if final else (
                        config.sampler == "ranked"
                    )
                    repair += peer_rtt(link_rng, same and record.parent_id is not None)
                span = tracer.start_span("REPAIR", now=event.time, parent=None, kind="op")
                span.network_time = repair
                span.annotate("orphan", record.orphan_id)
                span.annotate("repaired", record.parent_id is not None)
                tracer.finish(span, now=event.time + repair)
                if record.parent_id is None:
                    result.repairs_failed += 1
                else:
                    result.repair_times.append(repair)
                    if record.same_region:
                        result.repairs_local += 1
            continue

        # -------- join pipeline, one trace per viewer -----------------
        t0 = event.time
        t = t0
        root = tracer.start_span("JOIN_E2E", now=t0, parent=None, kind="op")
        root.annotate("region", spec.region)
        root.annotate("sampler", config.sampler)
        with tracer.using(root.context):
            # Phase 1: redirection -- where is my User Manager?
            rtt = latency.sample_rtt(spec.region, SITE)
            span = tracer.start_span("REDIRECT", now=t, kind="round")
            span.network_time = rtt
            t += rtt
            tracer.finish(span, now=t)
            phases["REDIRECT"].append(rtt)

            client = deployment.create_client(
                f"viewer{spec.index}@storm.example.org",
                "pw",
                region=spec.region,
                keypair=fleet_key,
            )
            client.login(now=t)

            # Phases 2+3: SWITCH for a peer list, JOIN down that list;
            # on total refusal the client goes back for a fresh list.
            peer: Optional[Peer] = None
            parent = None
            switch_total = 0.0
            join_total = 0.0
            fetches = 0
            attempts_total = 0
            while fetches < config.max_list_fetches and parent is None:
                fetches += 1
                rtt = latency.sample_rtt(spec.region, SITE)
                span = tracer.start_span("SWITCH", now=t, kind="round")
                span.network_time = rtt
                response = client.switch_channel(config.channel, now=t)
                t += rtt
                switch_total += rtt
                span.annotate("peer_list", len(response.peers))
                tracer.finish(span, now=t)

                if peer is None:
                    peer = deployment.make_peer(
                        client, config.channel, capacity=spec.capacity
                    )
                span = tracer.start_span("JOIN", now=t, kind="round")
                before = overlay.join_attempts
                try:
                    parent, _ = overlay.join(peer, response.peers, now=t)
                except CapacityError:
                    parent = None
                    span.annotate("error", "CapacityError")
                attempts = overlay.join_attempts - before
                attempts_total += attempts
                # One round trip per attempted candidate, priced by the
                # candidate's region (refused attempts cost their RTT
                # too -- that is exactly how a badly ordered list hurts).
                leg = 0.0
                for descriptor in response.peers[:attempts]:
                    leg += peer_rtt(link_rng, descriptor.region == spec.region)
                span.network_time = leg
                t += leg
                join_total += leg
                span.annotate("attempts", attempts)
                tracer.finish(span, now=t)
            phases["SWITCH"].append(switch_total)
            phases["JOIN"].append(join_total)
            root.annotate("fetches", fetches)
            root.annotate("attempts", attempts_total)

            if parent is None:
                result.join_failures += 1
                root.annotate("error", "CapacityError")
                tracer.finish(root, now=t)
                continue

            # Phase 4: first decryptable packet -- the content key and
            # the stream both travel the actual parent chain.
            assert peer is not None
            chain = _chain_one_way(overlay, peer, link_rng)
            span = tracer.start_span("FIRSTPKT", now=t, kind="round")
            span.network_time = chain
            t += chain
            tracer.finish(span, now=t)
            phases["FIRSTPKT"].append(chain)

            result.key_dist_latencies.append(_chain_one_way(overlay, peer, link_rng))
            if parent.peer_id != overlay.source.peer_id and parent.region == spec.region:
                local_parents += 1
        tracer.finish(root, now=t)
        result.join_latencies.append(t - t0)
        result.joined += 1
        peers[spec.index] = peer

    if config.verify_index:
        overlay.index.verify_against(overlay)
        result.index_verifications += 1
    result.selection = selection_counters.delta_since(selection_mark)
    result.phases = phases
    if result.joined:
        result.parent_locality = local_parents / result.joined
    depths = overlay.depths()
    if depths:
        result.mean_depth = sum(depths.values()) / len(depths)
        result.max_depth = max(depths.values())
    return result
