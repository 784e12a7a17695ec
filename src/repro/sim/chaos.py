"""Chaos scenario suite: injected failures vs. the resilience layer.

Each scenario builds one :class:`ChaosRig` -- a replicated deployment
(UM and CM farms with one failover replica each) serving a fleet of
:class:`~repro.resilience.client.ResilientAsyncClient` viewers over the
virtual network -- injects a failure pattern through the
:class:`~repro.sim.faults.FaultInjector`, runs to the horizon, and
checks the suite's invariants:

* **no entitled viewer permanently stuck** -- every client holds a
  Channel Ticket valid past the horizon when the run ends;
* **no double-location violation** -- the shared viewing log passes
  :func:`~repro.sim.faults.single_location_violations` even though
  renewals migrated across farm instances mid-fault;
* **zero-interruption survival** -- at least ``min_uninterrupted`` of
  the clients holding valid tickets at fault onset ride out the outage
  in degraded mode without playback ever stopping;
* **counter consistency** -- the shared
  :class:`~repro.resilience.counters.ResilienceCounters` agree with the
  per-client tallies and with each other (every transport failure is
  answered by exactly one retry or give-up, breakers close at most as
  often as they open, degraded entries balance exits);
* **observability** -- injected faults leave ``kind="resilience"``
  spans (RETRY / FAILOVER / DEGRADED.*) in the tracer.

Timing shape (defaults): Channel Tickets live 300 s and clients renew
60 s early, so with kickoffs at ``t = i`` the renewal storm crosses
t in [241, 249) and tickets expire near t in [301, 309) -- fault windows
around t = 235..330 therefore hit every client mid-renewal while its
ticket is still valid, which is exactly the regime degraded mode is
for.
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass, field, replace
from typing import Callable, Dict, List, Optional

from repro.crypto.drbg import HmacDrbg
from repro.deployment import Deployment
from repro.metrics.reporting import format_table
from repro.resilience.client import ResilientAsyncClient
from repro.resilience.retry import RetryPolicy
from repro.sim.driver import wire_channel_manager, wire_user_manager
from repro.sim.engine import Simulator
from repro.sim.faults import FaultInjector, single_location_violations
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

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "violations": list(self.violations),
            "horizon": self.horizon,
            "fault_events": [list(e) for e in self.fault_events],
            "outcomes": [asdict(o) for o in self.outcomes],
            "counters": dict(self.counters),
            "resilience_spans": dict(self.resilience_spans),
        }

    @staticmethod
    def from_dict(data: dict) -> "ScenarioResult":
        return ScenarioResult(
            name=data["name"],
            passed=data["passed"],
            violations=list(data["violations"]),
            horizon=data["horizon"],
            fault_events=[tuple(e) for e in data["fault_events"]],
            outcomes=[ClientOutcome(**o) for o in data["outcomes"]],
            counters=dict(data["counters"]),
            resilience_spans=dict(data["resilience_spans"]),
        )

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2)


def load_result(path: str) -> ScenarioResult:
    with open(path, "r", encoding="utf-8") as fh:
        return ScenarioResult.from_dict(json.load(fh))


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
        for name in ("um0", "um1", "cm0", "cm1"):
            self.stations[name] = ServiceStation(
                self.sim, 2, 0.005, random.Random(rng.randrange(2**63)), name=name
            )
        wire_user_manager(
            self.network, deployment.user_managers["domain-0"], UM0,
            station=self.stations["um0"],
        )
        wire_user_manager(
            self.network, deployment.um_replicas["domain-0"][0], UM1,
            station=self.stations["um1"],
        )
        wire_channel_manager(
            self.network, self.primary_cm, CM0, station=self.stations["cm0"]
        )
        wire_channel_manager(
            self.network, self.replica_cm, CM1, station=self.stations["cm1"]
        )

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

    def client_addresses(self) -> List[str]:
        return [viewer.net_addr for viewer in self.fleet]

    def run(self, name: str, extra_violations: Callable[["ChaosRig"], List[str]] = None) -> ScenarioResult:
        """Run to the horizon, flush accounting, check invariants."""
        config = self.config
        self.sim.run(until=config.horizon)
        for viewer in self.fleet:
            viewer.finalize(config.horizon)

        outcomes = [
            ClientOutcome(
                email=v.email,
                retries=v.retries,
                giveups=v.giveups,
                failovers=v.failovers,
                degraded_seconds=v.degraded_seconds,
                interruptions=v.interruptions,
                interruption_seconds=v.interruption_seconds,
                converged=(
                    v.channel_ticket is not None
                    and v.channel_ticket.expire_time > config.horizon
                ),
                ticket_expires_at=(
                    v.channel_ticket.expire_time
                    if v.channel_ticket is not None
                    else None
                ),
            )
            for v in self.fleet
        ]
        violations = self._check_invariants(outcomes)
        if extra_violations is not None:
            violations.extend(extra_violations(self))
        span_counts: Dict[str, int] = {}
        for span in self.tracer.spans:
            if span.kind == "resilience":
                span_counts[span.name] = span_counts.get(span.name, 0) + 1
        return ScenarioResult(
            name=name,
            passed=not violations,
            violations=violations,
            horizon=config.horizon,
            fault_events=list(self.injector.events),
            outcomes=outcomes,
            counters=self.deployment.resilience.snapshot(),
            resilience_spans=span_counts,
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


# ----------------------------------------------------------------------
# Scenarios
# ----------------------------------------------------------------------


def manager_crash_mid_storm(config: Optional[ChaosConfig] = None) -> ScenarioResult:
    """The acceptance scenario: the primary CM dies during the renewal
    storm and stays dead past every ticket's expiry.

    Every client times out on ``cm0``, trips its breaker, and fails
    over to ``cm1`` -- which shares the viewing log, so renewals
    continue the same viewing location.  After ``cm0`` recovers, the
    next renewal wave's half-open probes re-close its breakers.
    """
    config = config or ChaosConfig()
    rig = ChaosRig(config)
    rig.injector.down_at(235.0, CM0)
    rig.injector.up_at(330.0, CM0)
    return rig.run("manager_crash_mid_storm")


def rolling_restarts(config: Optional[ChaosConfig] = None) -> ScenarioResult:
    """Maintenance reboots: each farm instance restarts in turn, never
    both at once.  A re-login wave crosses the UM restarts; the renewal
    storm crosses the CM restarts."""
    config = replace(config or ChaosConfig(), round_timeout=5.0)
    rig = ChaosRig(config)
    rig.injector.down_at(60.0, UM0)
    rig.injector.up_at(90.0, UM0)
    rig.injector.down_at(100.0, UM1)
    rig.injector.up_at(130.0, UM1)
    rig.injector.down_at(235.0, CM0)
    rig.injector.up_at(275.0, CM0)
    rig.injector.down_at(280.0, CM1)
    rig.injector.up_at(310.0, CM1)
    for index, viewer in enumerate(rig.fleet):
        rig.sim.schedule(
            65.0 + config.kickoff_stagger * index,
            lambda _sim, v=viewer: v.start_resilient_login(lambda: None),
        )
    return rig.run("rolling_restarts")


def partition_cm_farm(config: Optional[ChaosConfig] = None) -> ScenarioResult:
    """The WAN between the viewers and the whole CM farm goes dark for
    27 s across the renewal storm.  No replica helps -- both are
    unreachable -- so every client simply degrades and retries until
    the partition heals; breakers should mostly stay closed (two
    failures is below the trip threshold)."""
    config = config or ChaosConfig()
    rig = ChaosRig(config)
    rig.injector.partition_at(235.0, rig.client_addresses(), [CM0, CM1])
    rig.injector.heal_at(262.0)
    return rig.run("partition_cm_farm")


def slow_station_brownout(config: Optional[ChaosConfig] = None) -> ScenarioResult:
    """The primary CM doesn't die -- its farm goes slow (1000x service
    time), the realistic gray failure.  Requests queue past the round
    timeout, which the client cannot distinguish from loss: breakers
    trip on the timeouts and the fleet drains to the replica."""
    config = config or ChaosConfig()
    rig = ChaosRig(config)
    station = rig.stations["cm0"]
    rig.injector.brownout_at(230.0, station, 1000.0)
    rig.injector.restore_at(290.0, station, 1000.0)
    return rig.run("slow_station_brownout")


def replica_flap(config: Optional[ChaosConfig] = None) -> ScenarioResult:
    """The primary CM flaps -- 6 s down, 6 s up -- through the renewal
    storm.  Clients whose attempts straddle down-windows retry and may
    fail over; the healthy replica backstops everyone."""
    config = config or ChaosConfig()
    rig = ChaosRig(config)
    rig.injector.flap(CM0, start=236.0, stop=278.0, period=6.0)
    return rig.run("replica_flap")


def shard_killed_mid_resharding(config: Optional[ChaosConfig] = None) -> ScenarioResult:
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
        name="shard_killed_mid_resharding",
        passed=not violations,
        violations=violations,
        horizon=1620.0,
        fault_events=fault_events,
        outcomes=[],
        counters={k: float(v) for k, v in runtime.counters.snapshot().items()},
        resilience_spans={},
    )


def _adversarial(name: str) -> Callable[[Optional[ChaosConfig]], ScenarioResult]:
    """Late-bound adversarial scenario (breaks the chaos<->adversarial
    import cycle: :mod:`repro.sim.adversarial` imports this module's
    result types at load time)."""

    def run(config: Optional[ChaosConfig] = None) -> ScenarioResult:
        from repro.sim import adversarial

        return getattr(adversarial, name)(config)

    run.__name__ = name
    return run


#: Scenario registry, in documentation order.  ``manager_crash_mid_storm``
#: first: it is the acceptance scenario and the CI smoke target.  The
#: ``polluting_parents``..``replay_storm`` tail is the Byzantine-peer
#: suite (see :mod:`repro.sim.adversarial`).
SCENARIOS: Dict[str, Callable[[Optional[ChaosConfig]], ScenarioResult]] = {
    "manager_crash_mid_storm": manager_crash_mid_storm,
    "rolling_restarts": rolling_restarts,
    "partition_cm_farm": partition_cm_farm,
    "slow_station_brownout": slow_station_brownout,
    "replica_flap": replica_flap,
    "shard_killed_mid_resharding": shard_killed_mid_resharding,
    "polluting_parents": _adversarial("polluting_parents"),
    "key_withholding_parents": _adversarial("key_withholding_parents"),
    "depth_liars": _adversarial("depth_liars"),
    "join_flood": _adversarial("join_flood"),
    "replay_storm": _adversarial("replay_storm"),
}


def run_scenario(name: str, config: Optional[ChaosConfig] = None) -> ScenarioResult:
    try:
        scenario = SCENARIOS[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; choose from {', '.join(SCENARIOS)}"
        ) from None
    return scenario(config)


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
