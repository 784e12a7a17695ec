"""Chaos scenario suite: injected failures vs. resilience and detection.

Two rigs, each a value-driven scenario family:

* :class:`ChaosRig` -- a replicated deployment (UM and CM farms with
  one failover replica each) serving a fleet of
  :class:`~repro.resilience.client.ResilientAsyncClient` viewers over
  the virtual network.  A :class:`FarmFaults` row plays a soft-fault
  schedule (:meth:`~repro.sim.faults.FaultInjector.schedule`) on it and
  checks the invariants:

  * **no entitled viewer permanently stuck** -- every client holds a
    Channel Ticket valid past the horizon when the run ends;
  * **no double-location violation** -- the shared viewing log passes
    :func:`~repro.sim.faults.single_location_violations` even though
    renewals migrated across farm instances mid-fault;
  * **zero-interruption survival** -- at least ``min_uninterrupted`` of
    the clients holding valid tickets at fault onset ride out the
    outage in degraded mode without playback ever stopping;
  * **counter consistency** -- the shared
    :class:`~repro.resilience.counters.ResilienceCounters` agree with
    the per-client tallies and with each other (every transport
    failure is answered by exactly one retry or give-up, breakers
    close at most as often as they open, degraded entries balance
    exits);
  * **observability** -- injected faults leave ``kind="resilience"``
    spans (RETRY / FAILOVER / DEGRADED.*) in the tracer.

  Timing shape (defaults): Channel Tickets live 300 s and clients renew
  60 s early, so with kickoffs at ``t = i`` the renewal storm crosses
  t in [241, 249) and tickets expire near t in [301, 309) -- fault
  windows around t = 235..330 therefore hit every client mid-renewal
  while its ticket is still valid, which is exactly the regime degraded
  mode is for.

* :class:`AdversarialRig` -- one channel whose fleet is ~20% Byzantine
  peers (polluting forwarded packets, withholding or replaying content
  keys, lying about tree depth), driven on a manual clock.  A
  :class:`Byzantine` row picks the misbehavior and checks the paper's
  threat-model invariants plus the detect -> quarantine -> evict ->
  repair pipeline:

  * **zero tampered decryptions, ever** -- asserted against the
    adversary's ground-truth log of polluted ciphertexts: if any honest
    client successfully decrypts polluted bytes, AEAD is broken;
  * **playback survives** -- at least ``min_uninterrupted`` of the
    honest viewers still decrypt fresh packets after the horizon;
  * **the pipeline is observable** -- detection, quarantine and
    eviction show up as ``kind="adversary"`` trace spans, scorecard
    events and ``adversary.*`` registry counters, and no honest peer
    is ever quarantined.

  ``CHAOS_ADV_VIEWERS`` overrides the honest-viewer count: ``--clients``
  sizes the resilient fleet, and the Byzantine gates need at least 8
  honest viewers, so one knob cannot size both.

``join_flood`` and ``shard_killed_mid_resharding`` drive their own
workloads and stay functions.
"""

from __future__ import annotations

import json
import os
import random
from collections import Counter
from dataclasses import asdict, dataclass, field, replace
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from repro.crypto.drbg import HmacDrbg
from repro.deployment import Deployment
from repro.errors import RateLimitError, ReproError
from repro.metrics.reporting import format_table
from repro.p2p.adversary import AdversarialPeer, AdversaryConfig
from repro.resilience.client import ResilientAsyncClient
from repro.resilience.retry import RetryPolicy
from repro.sim.driver import wire_channel_manager, wire_user_manager
from repro.sim.engine import Simulator
from repro.sim.faults import FaultInjector, FaultRow, flap, single_location_violations
from repro.sim.network import LatencyModel, RegionRtt
from repro.sim.rpc import VirtualNetwork
from repro.sim.station import ServiceStation
from repro.trace.span import Tracer

UM0, UM1 = "rpc://um0", "rpc://um1"
CM0, CM1 = "rpc://cm0", "rpc://cm1"


@dataclass(frozen=True)
class ChaosConfig:
    """Knobs shared by every scenario (see module docstring for the
    timing shape they produce)."""

    seed: int = 11
    clients: int = 8
    horizon: float = 700.0
    channel: str = "chaos"
    ticket_lifetime: float = 300.0
    round_timeout: float = 8.0
    renew_lead: float = 60.0
    retry_base: float = 2.0
    retry_multiplier: float = 2.0
    retry_cap: float = 60.0
    retry_attempts: int = 8
    breaker_threshold: int = 3
    breaker_reset: float = 30.0
    kickoff_stagger: float = 1.0
    #: Minimum fraction of fault-time-entitled clients that must see
    #: zero playback interruption (the acceptance bar is 0.95).
    min_uninterrupted: float = 0.95


@dataclass
class ClientOutcome:
    """One viewer's end-of-run tally."""

    email: str
    retries: int
    giveups: int
    failovers: int
    degraded_seconds: float
    interruptions: int
    interruption_seconds: float
    converged: bool
    ticket_expires_at: Optional[float]


@dataclass
class ScenarioResult:
    """Everything a chaos run produces, JSON-serializable."""

    name: str
    passed: bool
    violations: List[str]
    horizon: float
    fault_events: List[tuple]
    outcomes: List[ClientOutcome]
    counters: Dict[str, float]
    resilience_spans: Dict[str, int]

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(asdict(self), fh, indent=2)


def load_result(path: str) -> ScenarioResult:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    data["fault_events"] = [tuple(e) for e in data["fault_events"]]
    data["outcomes"] = [ClientOutcome(**o) for o in data["outcomes"]]
    return ScenarioResult(**data)


class ChaosRig:
    """A replicated deployment + resilient fleet + fault injector."""

    def __init__(self, config: ChaosConfig) -> None:
        self.config = config
        deployment = Deployment(
            seed=config.seed, channel_ticket_lifetime=config.ticket_lifetime
        )
        deployment.add_free_channel(config.channel, regions=["CH"])
        deployment.add_user_manager_replicas("domain-0", 1)
        deployment.add_channel_manager_replicas("default", 1)
        self.deployment = deployment
        self.primary_cm = deployment.channel_managers["default"]
        self.replica_cm = deployment.cm_replicas["default"][0]

        self.sim = Simulator()
        self.tracer = Tracer(clock=lambda: self.sim.now)
        deployment.enable_tracing(self.tracer)

        rng = random.Random(config.seed)
        latency = LatencyModel(
            random.Random(rng.randrange(2**63)),
            table={
                ("CH", "dc"): RegionRtt(
                    base_rtt=0.08, sigma=0.005, slow_path_prob=0.0
                )
            },
        )
        self.network = VirtualNetwork(
            self.sim, latency, random.Random(rng.randrange(2**63))
        )
        self.network.tracer = self.tracer
        self.stations: Dict[str, ServiceStation] = {}
        for name, address, wire, manager in (
            ("um0", UM0, wire_user_manager, deployment.user_managers["domain-0"]),
            ("um1", UM1, wire_user_manager, deployment.um_replicas["domain-0"][0]),
            ("cm0", CM0, wire_channel_manager, self.primary_cm),
            ("cm1", CM1, wire_channel_manager, self.replica_cm),
        ):
            self.stations[name] = ServiceStation(
                self.sim, 2, 0.005, random.Random(rng.randrange(2**63)), name=name
            )
            wire(self.network, manager, address, station=self.stations[name])

        retry = RetryPolicy(
            base_delay=config.retry_base,
            multiplier=config.retry_multiplier,
            max_delay=config.retry_cap,
            max_attempts=config.retry_attempts,
        )
        self.fleet: List[ResilientAsyncClient] = []
        for index in range(config.clients):
            email = f"chaos{index}@example.org"
            deployment.accounts.register(email, "pw")
            viewer = ResilientAsyncClient(
                network=self.network,
                email=email,
                password="pw",
                version=deployment.client_version,
                image=deployment.client_image,
                net_addr=deployment.geo.random_address("CH", deployment.rng),
                region="CH",
                drbg=HmacDrbg(email.encode(), b"chaos"),
                tracer=self.tracer,
                um_addresses=[UM0, UM1],
                cm_addresses=[CM0, CM1],
                retry=retry,
                counters=deployment.resilience,
                rng=random.Random(rng.randrange(2**63)),
                breaker_threshold=config.breaker_threshold,
                breaker_reset=config.breaker_reset,
                renew_lead=config.renew_lead,
                round_timeout=config.round_timeout,
            )
            self.fleet.append(viewer)
            self.sim.schedule(
                config.kickoff_stagger * index,
                lambda _sim, v=viewer: v.watch(config.channel),
            )
        self.injector = FaultInjector(self.network)

    # ------------------------------------------------------------------

    def run(self, name: str) -> ScenarioResult:
        """Run to the horizon, flush accounting, check invariants."""
        config = self.config
        self.sim.run(until=config.horizon)
        for viewer in self.fleet:
            viewer.finalize(config.horizon)

        outcomes = []
        for v in self.fleet:
            expires = v.channel_ticket.expire_time if v.channel_ticket is not None else None
            outcomes.append(ClientOutcome(
                email=v.email, retries=v.retries, giveups=v.giveups,
                failovers=v.failovers, degraded_seconds=v.degraded_seconds,
                interruptions=v.interruptions,
                interruption_seconds=v.interruption_seconds,
                converged=expires is not None and expires > config.horizon,
                ticket_expires_at=expires,
            ))
        violations = self._check_invariants(outcomes)
        span_counts = Counter(s.name for s in self.tracer.spans if s.kind == "resilience")
        return ScenarioResult(
            name=name,
            passed=not violations,
            violations=violations,
            horizon=config.horizon,
            fault_events=list(self.injector.events),
            outcomes=outcomes,
            counters=self.deployment.resilience.snapshot(),
            resilience_spans=dict(span_counts),
        )

    def _check_invariants(self, outcomes: List[ClientOutcome]) -> List[str]:
        violations: List[str] = []
        counters = self.deployment.resilience

        # One viewing location per account, across every farm instance
        # (the log is shared by reference; either handle works).
        violations.extend(single_location_violations(self.primary_cm.viewing_log()))

        # No entitled viewer permanently stuck.
        for outcome in outcomes:
            if not outcome.converged:
                violations.append(
                    f"{outcome.email}: not reconverged by the horizon "
                    f"(ticket expires at {outcome.ticket_expires_at})"
                )

        # Zero-interruption survival among clients entitled at fault
        # onset (ticket issued before, expiring after the first fault).
        if self.injector.events:
            onset = min(when for when, _kind, _target in self.injector.events)
            eligible = [
                v for v in self.fleet
                if v.channel_ticket is not None
                and any(
                    s.name == "SWITCH" and s.start < onset
                    for s in self.tracer.spans
                    if s.annotations.get("client") == v.email
                )
            ]
            if eligible:
                unhurt = sum(1 for v in eligible if v.interruptions == 0)
                fraction = unhurt / len(eligible)
                if fraction < self.config.min_uninterrupted:
                    violations.append(
                        f"only {fraction:.0%} of {len(eligible)} entitled "
                        f"clients survived without interruption "
                        f"(need {self.config.min_uninterrupted:.0%})"
                    )

        # Counter consistency: shared block vs. per-client tallies.
        for counter, attr in (
            (counters.retries, "retries"),
            (counters.giveups, "giveups"),
            (counters.failovers, "failovers"),
            (counters.playback_interruptions, "interruptions"),
        ):
            total = sum(getattr(v, attr) for v in self.fleet)
            if counter != total:
                violations.append(
                    f"counter {attr}: shared block says {counter}, "
                    f"clients sum to {total}"
                )
        failures = counters.timeouts + counters.drops + counters.pool_exhausted
        answers = counters.retries + counters.giveups
        if failures != answers:
            violations.append(
                f"{failures} transport failures but {answers} retry/give-up "
                f"responses -- a failure was double-counted or dropped"
            )
        if counters.breaker_opens < counters.breaker_closes:
            violations.append(
                f"breaker closed {counters.breaker_closes} times but only "
                f"opened {counters.breaker_opens}"
            )
        if counters.degraded_entries != counters.degraded_exits:
            violations.append(
                f"degraded entries ({counters.degraded_entries}) != exits "
                f"({counters.degraded_exits}) after finalize"
            )

        # Faults must be observable in the trace.
        if self.injector.events:
            if counters.retries == 0:
                violations.append("faults injected but no retries recorded")
            if not any(s.kind == "resilience" for s in self.tracer.spans):
                violations.append(
                    "faults injected but no resilience spans recorded"
                )
        return violations


#: Honest viewers unless CHAOS_ADV_VIEWERS overrides; one adversary per
#: four honest viewers makes the fleet exactly 20% adversarial.
DEFAULT_VIEWERS = 20
KEY_EPOCH = 60.0
STEP = 10.0


class AdversarialRig:
    """One channel, a mixed honest/Byzantine fleet, a manual clock.

    The rig drives the overlay directly (source tick + packet
    broadcast each step, a containment sweep each key epoch) the way
    the flash-crowd storm driver does -- no virtual network needed,
    the misbehavior is all above the transport.
    """

    def __init__(
        self,
        config: ChaosConfig,
        adversary: AdversaryConfig,
        adversaries_first: bool = True,
        join_rate_limit: Optional[Tuple[int, float]] = None,
    ) -> None:
        self.config = config
        env = os.environ.get("CHAOS_ADV_VIEWERS")
        viewers = max(4, int(env)) if env is not None else max(DEFAULT_VIEWERS, config.clients)
        n_adversaries = max(1, round(viewers * 0.25))
        self.deployment = Deployment(seed=config.seed, source_capacity=4)
        self.tracer = self.deployment.enable_tracing()
        # A long half-life inside one run: evidence from the fault
        # window must not decay away before the containment sweep.
        self.scorecard = self.deployment.enable_misbehavior_detection(
            half_life=600.0,
            quarantine_threshold=3.0,
            join_rate_limit=join_rate_limit,
        )
        self.deployment.add_free_channel(
            config.channel, regions=["CH"], now=0.0, key_epoch=KEY_EPOCH
        )
        self.overlay = self.deployment.overlay(config.channel)
        self.honest_clients = []
        self.honest_peers = []
        self.adversaries: List[AdversarialPeer] = []
        self.violations: List[str] = []

        adversarial = [(f"byz{i}@example.org", adversary) for i in range(n_adversaries)]
        honest = [(f"viewer{i}@example.org", None) for i in range(viewers)]
        if adversaries_first:
            # Scatter the adversaries through the join order (one per
            # honest stride).  Joining them in a block would stack them
            # at the top of the tree where they only parent each other
            # -- a blackout, not the detectable-misbehavior regime
            # these scenarios exercise.  Interleaved, each adversary
            # lands under an honest parent and collects honest
            # children.  The first comes right after the second honest
            # joiner -- early enough that shallow slots are still open,
            # so its inflated capacity advertisement actually wins it
            # honest children through the ranked pipeline.  Later slots
            # may land deep and childless; the gates only need the
            # exposed ones.
            stride = max(1, viewers // n_adversaries)
            joiners, pending = [], adversarial
            for count, entry in enumerate(honest, 1):
                joiners.append(entry)
                if pending and count >= 2 and (count - 2) % stride == 0:
                    joiners.append(pending.pop(0))
            joiners += pending
        else:
            joiners = honest + adversarial
        for index, (email, misbehavior) in enumerate(joiners):
            self.admit(email, f"pw{index}", float(index), misbehavior)

    def admit(
        self, email: str, password: str, now: float,
        adversary: Optional[AdversaryConfig] = None,
    ) -> None:
        """Log a viewer in, switch it to the channel and join the overlay.

        An honest viewer's client is guarded: it may never
        *successfully* decrypt polluted bytes.  Tampered copies share
        (serial, sequence) with the honest original, so the guard keys
        on the exact ciphertext.
        """
        channel = self.config.channel
        client = self.deployment.create_client(email, password, region="CH")
        client.login(now=now)
        response = client.switch_channel(channel, now=now)
        if adversary is None:
            peer = self.deployment.make_peer(client, channel)
            original = client.receive_packet

            def guarded(packet):
                payload = original(packet)
                for bad in self.adversaries:
                    if packet.ciphertext in bad.tampered_blobs:
                        self.violations.append(
                            f"{client.email} decrypted tampered packet "
                            f"{packet.serial}:{packet.sequence} from {bad.peer_id}"
                        )
                return payload

            client.receive_packet = guarded
            self.honest_clients.append(client)
            self.honest_peers.append(peer)
        else:
            # Extra uplink budget: a misbehaving peer *advertising*
            # generous capacity is exactly how a real polluter
            # maximizes its blast radius through ranked selection.
            peer = self.deployment.make_adversarial_peer(
                client, channel, config=adversary, capacity=8
            )
            self.adversaries.append(peer)
        self.overlay.join(peer, response.peers, now)

    # -- driving --------------------------------------------------------

    def run_clock(
        self, on_step: Optional[Callable[[float], None]] = None
    ) -> None:
        """Broadcast + key rotation to the horizon, containment sweeps
        once per key epoch."""
        t = 0.0
        next_sweep = KEY_EPOCH
        while t <= self.config.horizon:
            self.scorecard.advance(t)
            self.overlay.source.tick(t)
            self.overlay.source.broadcast_packet(t)
            if on_step is not None:
                on_step(t)
            if t >= next_sweep:
                self.deployment.contain_misbehavior(t)
                next_sweep += KEY_EPOCH
            t += STEP

    def playback_fraction(self) -> float:
        """Fraction of honest viewers decrypting *fresh* packets after
        the horizon (the paper's bar: authorized playback survives)."""
        horizon = self.config.horizon
        marks = {c.email: c.packets_decrypted for c in self.honest_clients}
        for i in range(3):
            now = horizon + float(i + 1)
            self.overlay.source.tick(now)
            self.overlay.source.broadcast_packet(now)
        playing = sum(
            1 for c in self.honest_clients if c.packets_decrypted > marks[c.email]
        )
        return playing / max(1, len(self.honest_clients))

    # -- result assembly ------------------------------------------------

    def finish(self, name: str, extra_violations: List[str]) -> ScenarioResult:
        violations = list(self.violations) + list(extra_violations)
        counters = {
            f"adversary.{key}": float(value)
            for key, value in self.deployment.misbehavior.snapshot().items()
        }
        counters["overlay.repairs"] = float(self.overlay.repairs)
        counters["overlay.repair_log_dropped"] = float(self.overlay.repair_log.dropped)
        counters["honest_viewers"] = float(len(self.honest_clients))
        counters["adversaries"] = float(len(self.adversaries))
        span_counts = Counter(
            span.name for span in self.tracer.spans if span.kind == "adversary"
        )
        # Fault log: one line per adversary (what it injected), then
        # the scorecard's quarantine/evict transitions.
        fault_events: List[tuple] = []
        for peer in self.adversaries:
            injected = Counter(kind for kind, _ in peer.injection_log)
            fault_events.append(
                (peer.config.start, "adversary", f"{peer.peer_id} {dict(injected)}")
            )
        fault_events.extend(
            (when, kind, target)
            for when, kind, target in self.scorecard.events
            if not kind.startswith("detect:")
        )
        return ScenarioResult(
            name=name,
            passed=not violations,
            violations=violations,
            horizon=self.config.horizon,
            fault_events=fault_events,
            outcomes=[],
            counters=counters,
            resilience_spans=dict(span_counts),
        )

    # -- shared invariant helpers ---------------------------------------

    def require_playback(self, violations: List[str]) -> None:
        fraction = self.playback_fraction()
        if fraction < self.config.min_uninterrupted:
            violations.append(
                f"only {fraction:.0%} of honest viewers kept playback "
                f"(bar {self.config.min_uninterrupted:.0%})"
            )


# ----------------------------------------------------------------------
# Scenarios
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class FarmFaults:
    """A resilient scenario: a soft-fault schedule on :class:`ChaosRig`.

    ``partition`` rows name the groups ``fleet`` (the viewers'
    addresses) and ``cm_farm``; ``brownout`` rows name a farm station.
    ``relogin_at`` starts a staggered re-login wave at that instant.
    """

    faults: Tuple[FaultRow, ...]
    overrides: Mapping[str, object] = field(default_factory=dict)
    relogin_at: Optional[float] = None

    def __call__(self, name: str, config: Optional[ChaosConfig]) -> ScenarioResult:
        config = replace(config or ChaosConfig(), **self.overrides)
        rig = ChaosRig(config)
        groups = {"fleet": [v.net_addr for v in rig.fleet], "cm_farm": [CM0, CM1]}
        rig.injector.schedule(self.faults, groups, rig.stations)
        if self.relogin_at is not None:
            for index, viewer in enumerate(rig.fleet):
                rig.sim.schedule(
                    self.relogin_at + config.kickoff_stagger * index,
                    lambda _sim, v=viewer: v.start_resilient_login(lambda: None),
                )
        return rig.run(name)


@dataclass(frozen=True)
class Byzantine:
    """A Byzantine scenario: one misbehavior on :class:`AdversarialRig`.

    ``detection`` is the misbehavior counter that must fire;
    ``injection`` is the ``injection_log`` kind whose absence means the
    adversaries never misbehaved (a rig bug, not a pass); ``check``
    adds scenario-specific violations.
    """

    adversary: AdversaryConfig
    detection: str
    injection: str
    adversaries_first: bool = True
    check: Optional[Callable[[AdversarialRig], List[str]]] = None

    def __call__(self, name: str, config: Optional[ChaosConfig]) -> ScenarioResult:
        rig = AdversarialRig(
            config or ChaosConfig(channel="byz"),
            self.adversary,
            adversaries_first=self.adversaries_first,
        )
        rig.run_clock()
        # Detection fired, quarantine happened, eviction repaired, and
        # no honest peer was framed.
        violations: List[str] = []
        snapshot = rig.deployment.misbehavior.snapshot()
        if snapshot[self.detection] == 0:
            violations.append(f"no {self.detection} detections recorded")
        if snapshot["peers_quarantined"] == 0:
            violations.append("no peer was quarantined")
        if snapshot["peers_evicted"] == 0:
            violations.append("no peer was evicted")
        names = {s.name for s in rig.tracer.spans if s.kind == "adversary"}
        for required in ("ADVERSARY.detect", "ADVERSARY.quarantine", "ADVERSARY.evict"):
            if required not in names:
                violations.append(f"missing {required} trace span")
        framed = sorted(rig.scorecard.quarantined() & {p.peer_id for p in rig.honest_peers})
        if framed:
            violations.append(f"honest peers quarantined: {framed}")
        rig.require_playback(violations)
        if not any(
            kind == self.injection for peer in rig.adversaries for kind, _ in peer.injection_log
        ):
            violations.append(f"adversaries never logged a {self.injection!r} (rig bug)")
        if self.check is not None:
            violations.extend(self.check(rig))
        return rig.finish(name, violations)


def _depths_track_tree(rig: AdversarialRig) -> List[str]:
    """Honest heartbeats keep advertised depths within one hop of the
    measured tree (they refresh once per key epoch via ``parent_depth``)."""
    measured = rig.overlay.depths()
    stale = [
        (peer.peer_id, peer.depth, measured[peer.peer_id])
        for peer in rig.honest_peers
        if peer.peer_id in measured and abs(peer.depth - measured[peer.peer_id]) > 1
    ]
    return [f"honest depths drifted from measured tree: {stale[:5]}"] if stale else []


def _rings_at_head(rig: AdversarialRig) -> List[str]:
    """Replayed serials never regress a ring: every honest client's
    newest accepted activation stays at the stream head."""
    head = max((c._newest_key_activation for c in rig.honest_clients), default=0.0)
    laggards = [
        c.email
        for c in rig.honest_clients
        if head - c._newest_key_activation > 2 * KEY_EPOCH
    ]
    if len(laggards) > len(rig.honest_clients) * 0.05:
        return [f"key rings regressed under replay: {laggards[:5]}"]
    return []


def shard_killed_mid_resharding(name: str, config: Optional[ChaosConfig]) -> ScenarioResult:
    """A UM shard being resharded *in* dies halfway through the range move.

    A sharded deployment with live viewers stands up a new
    Authentication Domain and starts migrating ~1/N of the users onto
    it.  Mid-copy, an in-flight renewal for a frozen (moving) user is
    deferred, and then the migration *target* crashes.  Acceptance:

    * the directory never points at a shard missing the named key's
      WAL state -- not mid-copy, not after rollback, not after resume;
    * the one-viewing-location invariant holds throughout;
    * the migration rolls back cleanly (freezes lifted, deferred
      renewal replayed against the old owner, directory unchanged) and
      *resumes* to completion once the target recovers;
    * post-cutover, every moved viewer renews against the new owner --
      viewing-history continuity across the migration.
    """
    from repro.errors import ShardFrozenError
    from repro.sharding import MigrationAborted, directory_state_violations

    config = config or ChaosConfig()
    violations: List[str] = []
    fault_events: List[tuple] = []

    deployment = Deployment(seed=config.seed, n_domains=2, partitions=("default",))
    deployment.enable_durability()  # memory-backed WALs survive the crash
    deployment.add_free_channel(config.channel, regions=["CH"], now=0.0)
    runtime = deployment.enable_sharding()

    clients = []
    for index in range(config.clients):
        client = deployment.create_client(
            f"viewer{index}@example.org", f"pw{index}", region="CH"
        )
        client.login(now=float(index))
        client.switch_channel(config.channel, now=float(index) + 0.5)
        clients.append(client)

    # Stand up the migration target (the first half of
    # add_user_manager_shards; the scenario executes the plan itself so
    # the failure can be injected mid-execute).
    plan = deployment.stand_up_user_manager_shard()
    domain = plan.target
    total_moves = len(plan.moved) + len(plan.moved_user_ids)
    if total_moves == 0:
        violations.append("reshard plan moved no keys; nothing to test")

    # Channel Tickets issued near t=0 with the default 900 s lifetime
    # renew inside [expiry-120, expiry]; t=800 lands in every window.
    renew_at, replay_at = 800.0, 805.0
    deferred: List[str] = []

    def failpoint(copied: int) -> None:
        if copied != max(1, total_moves // 2):
            return
        # The renewal storm crosses the migration: frozen (moving)
        # users are refused with ShardFrozenError and parked at the
        # coordinator; everyone else renews normally mid-migration.
        for client in clients:
            try:
                client.renew_channel_ticket(now=renew_at)
            except ShardFrozenError:
                deferred.append(client.email)
                runtime.coordinator.defer(
                    lambda c=client: c.renew_channel_ticket(now=replay_at)
                )
        mid_violations = directory_state_violations(deployment, runtime)
        if mid_violations:
            violations.extend(f"mid-copy: {v}" for v in mid_violations)
        fault_events.append((renew_at, "crash", f"um://{domain}"))
        deployment.crash_user_manager(domain)

    try:
        runtime.coordinator.execute(plan, failpoint=failpoint, now=renew_at)
        violations.append("migration completed despite target crash")
    except MigrationAborted:
        pass
    if not deferred:
        violations.append("no renewal was deferred by the freeze")
    if plan.state != "rolled_back":
        violations.append(f"expected rollback, plan is {plan.state!r}")
    violations.extend(
        f"post-rollback: {v}" for v in directory_state_violations(deployment, runtime)
    )
    violations.extend(single_location_violations(runtime.viewing.combined_log()))
    if runtime.user_directory.frozen_keys():
        violations.append("user-directory freeze leaked past rollback")
    if runtime.viewing.frozen_users():
        violations.append("viewing freeze leaked past rollback")
    if runtime.counters.replayed_operations < len(deferred):
        violations.append("deferred renewals were not replayed on rollback")

    # The target recovers from its WAL; the migration resumes and
    # completes (every copy step is an upsert, so the partial state the
    # dead shard retained is reconciled, not duplicated).
    fault_events.append((850.0, "recover", f"um://{domain}"))
    deployment.recover_user_manager(domain)
    try:
        runtime.coordinator.resume(plan, now=860.0)
    except Exception as exc:  # noqa: BLE001 - any failure is a finding
        violations.append(f"resume failed: {exc}")
    if plan.state != "complete":
        violations.append(f"expected completion after resume, plan is {plan.state!r}")
    violations.extend(
        f"post-resume: {v}" for v in directory_state_violations(deployment, runtime)
    )
    if runtime.viewing.misplaced_users():
        violations.append(
            f"viewing histories stranded off-owner: {runtime.viewing.misplaced_users()}"
        )

    # Continuity: every viewer -- moved or not -- renews again after
    # cutover, and the merged log stays one-location clean.
    for client in clients:
        try:
            client.renew_channel_ticket(now=1620.0)
        except Exception as exc:  # noqa: BLE001
            violations.append(f"post-cutover renewal failed for {client.email}: {exc}")
    violations.extend(single_location_violations(runtime.viewing.combined_log()))

    return ScenarioResult(
        name=name,
        passed=not violations,
        violations=violations,
        horizon=1620.0,
        fault_events=fault_events,
        outcomes=[],
        counters={k: float(v) for k, v in runtime.counters.snapshot().items()},
        resilience_spans={},
    )


def join_flood(name: str, config: Optional[ChaosConfig]) -> ScenarioResult:
    """One authorized client hammers SWITCH from t=150 onward.

    The CM's per-address sliding-window rate limiter sheds the flood
    before signature work; honest viewers -- including one that joins
    *during* the flood from its own address -- are untouched.
    """
    config = config or ChaosConfig(channel="byz")
    # The flood comes from a client, not a peer.
    rig = AdversarialRig(config, AdversaryConfig(), join_rate_limit=(5, 60.0))
    flooder = rig.deployment.create_client("flood@example.org", "pw", region="CH")
    flooder.login(now=1.0)
    flood: Counter = Counter()
    errors: List[str] = []
    late: List[float] = []

    def step(now: float) -> None:
        for _ in range(4 if now >= 150.0 else 0):  # 24/min against a 5/min budget
            flood["attempts"] += 1
            try:
                flooder.switch_channel(config.channel, now=now)
            except RateLimitError:
                flood["refused"] += 1
            except ReproError as exc:
                errors.append(str(exc))
        if not late and now >= 300.0:
            late.append(now)
            try:
                rig.admit("late@example.org", "pw-late", now)
            except ReproError as exc:
                rig.violations.append(f"honest mid-flood join failed: {exc}")

    rig.run_clock(on_step=step)
    violations: List[str] = []
    if rig.deployment.misbehavior.snapshot()["joins_rate_limited"] == 0:
        violations.append("rate limiter never fired during the flood")
    if flood["refused"] == 0:
        violations.append("flooder was never refused")
    if flood["refused"] < flood["attempts"] * 0.5:
        violations.append(
            f"rate limiter too porous: {flood['refused']}/{flood['attempts']} refused"
        )
    if errors:
        violations.append(f"unexpected flood errors: {errors[:3]}")
    if not late:
        violations.append("late honest viewer never attempted its join")
    rig.require_playback(violations)
    result = rig.finish(name, violations)
    result.counters["flood.attempts"] = float(flood["attempts"])
    result.counters["flood.refused"] = float(flood["refused"])
    return result


#: Scenario registry, in documentation order: each entry is called as
#: ``scenario(name, config)``.  ``manager_crash_mid_storm`` first: it is
#: the acceptance scenario -- the primary CM dies during the renewal
#: storm and stays dead past every ticket's expiry.
SCENARIOS: Dict[str, Callable[[str, Optional[ChaosConfig]], ScenarioResult]] = {
    "manager_crash_mid_storm": FarmFaults(
        ((235.0, "down", CM0), (330.0, "up", CM0)),
    ),
    # Maintenance reboots, one instance at a time: a re-login wave
    # crosses the UM restarts, the renewal storm the CM restarts.
    "rolling_restarts": FarmFaults(
        (
            (60.0, "down", UM0), (90.0, "up", UM0),
            (100.0, "down", UM1), (130.0, "up", UM1),
            (235.0, "down", CM0), (275.0, "up", CM0),
            (280.0, "down", CM1), (310.0, "up", CM1),
        ),
        overrides={"round_timeout": 5.0},
        relogin_at=65.0,
    ),
    # The WAN to the whole CM farm goes dark for 27 s: no replica helps,
    # clients degrade and retry in place (two failures stay below the
    # breaker threshold).
    "partition_cm_farm": FarmFaults(
        ((235.0, "partition", "fleet<->cm_farm"), (262.0, "heal", "*")),
    ),
    # Gray failure: cm0 runs 1000x slow; queued requests time out like
    # losses, breakers trip, the fleet drains to the replica.
    "slow_station_brownout": FarmFaults(
        ((230.0, "brownout", "cm0 x1000"), (290.0, "restore", "cm0")),
    ),
    # cm0 flaps 6 s down, 6 s up through the renewal storm.
    "replica_flap": FarmFaults(tuple(flap(CM0, start=236.0, stop=278.0, period=6.0))),
    "shard_killed_mid_resharding": shard_killed_mid_resharding,
    # The Byzantine tail: adversaries join early, behave, earn children,
    # then turn at ``start``.
    "polluting_parents": Byzantine(
        AdversaryConfig(tamper_packets=1.0, start=150.0), "pollution_detected", "tamper"
    ),
    "key_withholding_parents": Byzantine(
        AdversaryConfig(withhold_keys=True, start=150.0), "missing_key_detected", "withhold"
    ),
    # Liars join after the honest fleet and pin their advertised depth
    # at 0; the overlay's depth audit must catch them.
    "depth_liars": Byzantine(
        AdversaryConfig(lie_depth=0, start=0.0), "depth_lies_detected", "lie_descriptor",
        adversaries_first=False, check=_depths_track_tree,
    ),
    "join_flood": join_flood,
    # Each adversary replays its stalest key beside every fresh one.
    "replay_storm": Byzantine(
        AdversaryConfig(replay_keys=True, start=60.0), "key_replays_rejected", "replay",
        check=_rings_at_head,
    ),
}


def run_scenario(name: str, config: Optional[ChaosConfig] = None) -> ScenarioResult:
    try:
        scenario = SCENARIOS[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; choose from {', '.join(SCENARIOS)}"
        ) from None
    return scenario(name, config)


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------


def render_result(result: ScenarioResult) -> str:
    """Human-readable report for one scenario run."""
    lines = [
        f"scenario: {result.name} -- {'PASS' if result.passed else 'FAIL'}",
        f"  horizon {result.horizon:g}s, "
        f"{len(result.outcomes)} clients, "
        f"{len(result.fault_events)} fault events",
    ]
    for when, kind, target in result.fault_events:
        lines.append(f"    t={when:7.1f}  {kind:<10} {target}")
    rows = [
        (
            o.email.split("@")[0],
            o.retries,
            o.failovers,
            f"{o.degraded_seconds:.1f}",
            o.interruptions,
            "yes" if o.converged else "NO",
        )
        for o in result.outcomes
    ]
    lines.append("")
    lines.append(
        format_table(
            ["client", "retries", "failovers", "degraded (s)", "interruptions",
             "converged"],
            rows,
        )
    )
    lines.append("")
    adversary = {
        k.split(".", 1)[1]: v
        for k, v in sorted(result.counters.items())
        if k.startswith("adversary.")
    }
    if adversary:
        lines.append(
            format_table(
                ["misbehavior / containment", "count"],
                [(k, int(v)) for k, v in adversary.items()],
            )
        )
        lines.append("")
    interesting = {
        k: v
        for k, v in sorted(result.counters.items())
        if v and not k.startswith("adversary.")
    }
    lines.append(f"  counters: {interesting}")
    if result.resilience_spans:
        lines.append(f"  resilience spans: {dict(sorted(result.resilience_spans.items()))}")
    for violation in result.violations:
        lines.append(f"  VIOLATION: {violation}")
    return "\n".join(lines)
