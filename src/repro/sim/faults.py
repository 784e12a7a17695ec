"""Crash/restart fault injection for the virtual-time rig.

The durability layer (:mod:`repro.store`) claims that a manager can
die mid-storm and come back with identical state.  This module makes
that claim testable *inside the simulation*: a :class:`FaultInjector`
kills an RPC endpoint at a virtual instant (requests in flight die
with it -- including replies already computed, the classic "durable
but unacknowledged" ambiguity), then at a later instant rebuilds the
manager from its store and re-registers its endpoints.

It also packages the recovery invariants the paper's guarantees imply:

* :func:`single_location_violations` -- the Section IV-D rule: a
  renewal must continue the *same* viewing location; after any entry
  from a new address, the old address never successfully renews.
* :func:`utime_regressions` -- Section IV-B change propagation: the
  recovered Channel Attribute List must never report an *older* utime
  than clients have already seen, or lineup changes would be missed.
* :func:`viewing_log_divergence` -- byte-level equality of viewing
  logs (the crash-recovery acceptance check).

The chaos suite's softer faults -- an address down or up in place, a
partition, a slow station -- are ``(when, kind, target)`` rows that
:meth:`FaultInjector.schedule` plays; :func:`flap` expands to such rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.core.attributes import AttributeSet
from repro.core.channel_manager import ViewingLogEntry
from repro.errors import SimulationError
from repro.sim.rpc import VirtualNetwork
from repro.sim.station import ServiceStation


@dataclass
class CrashRecord:
    """One injected crash, for post-run reporting."""

    address: str
    crashed_at: float
    recovered_at: Optional[float] = None
    records_replayed: Optional[int] = None
    recovery_seconds: Optional[float] = None

    @property
    def downtime(self) -> Optional[float]:
        if self.recovered_at is None:
            return None
        return self.recovered_at - self.crashed_at


#: One soft fault, ``(when, kind, target)`` -- see :meth:`FaultInjector.schedule`.
FaultRow = Tuple[float, str, str]

#: Rebuilds the crashed component and re-registers its RPC endpoints;
#: returns the store whose stats carry replay counters (or None).
RecoveryFn = Callable[[], Optional[object]]


class FaultInjector:
    """Schedules process crashes and recoveries on a virtual network."""

    def __init__(self, network: VirtualNetwork) -> None:
        self._network = network
        self._sim = network.sim
        self.crashes: List[CrashRecord] = []
        #: Scheduled soft faults -- the chaos report prints these next
        #: to the client outcomes.
        self.events: List[FaultRow] = []
        self._brownouts: Dict[str, float] = {}

    def crash_at(self, when: float, address: str) -> CrashRecord:
        """Kill the service at ``address`` at virtual time ``when``.

        The binding is detached (the address becomes unreachable) and
        every message still referencing the dead process -- queued
        requests, computed-but-unsent replies -- is dropped when it
        would have been delivered.
        """
        record = CrashRecord(address=address, crashed_at=when)
        self.crashes.append(record)

        def kill(sim) -> None:
            if self._network.detach(address) is None:
                raise SimulationError(f"cannot crash unknown service {address!r}")

        self._sim.schedule_at(when, kill)
        return record

    def recover_at(self, when: float, record: CrashRecord, rebuild: RecoveryFn) -> None:
        """Schedule recovery for a crash previously injected.

        ``rebuild`` runs at ``when``: it must reconstruct the manager
        from its durable store and re-attach its RPC endpoints (the
        address is free again by then).  If it returns the store, the
        crash record picks up replay statistics.
        """
        if when <= record.crashed_at:
            raise SimulationError("recovery must come after the crash")

        def revive(sim) -> None:
            store = rebuild()
            record.recovered_at = sim.now
            if store is not None:
                record.records_replayed = store.stats.records_replayed
                record.recovery_seconds = store.stats.recovery_seconds

        self._sim.schedule_at(when, revive)

    def crash_and_recover(
        self, address: str, crash_at: float, recover_at: float, rebuild: RecoveryFn
    ) -> CrashRecord:
        """Convenience: one crash plus its recovery."""
        record = self.crash_at(crash_at, address)
        self.recover_at(recover_at, record, rebuild)
        return record

    # ------------------------------------------------------------------
    # Softer faults (the chaos suite's vocabulary)
    # ------------------------------------------------------------------

    def schedule(
        self,
        rows: Iterable[FaultRow],
        groups: Mapping[str, Sequence[str]] = {},
        stations: Mapping[str, ServiceStation] = {},
    ) -> None:
        """Schedule soft faults given as ``(when, kind, target)`` rows.

        Unlike ``crash_at`` these keep the process intact; the network
        or the scheduler misbehaves around it.  Kinds: ``down``/``up``
        an RPC address in place; ``partition`` ``"A<->B"`` between two
        named address ``groups`` (logged resolved); ``heal`` ``"*"``;
        ``brownout`` ``"cm0 x1000"`` multiplies a named station's live
        mean service time until its ``restore`` ``"cm0"``.
        """
        network = self._network
        for when, kind, target in rows:
            if kind in ("down", "up"):
                toggle = network.set_down if kind == "down" else network.set_up
                action = lambda _sim, toggle=toggle, address=target: toggle(address)
            elif kind == "partition":
                a, b = (list(groups[side]) for side in target.split("<->"))
                target = f"{a}<->{b}"
                action = lambda _sim, a=a, b=b: network.partition(a, b)
            elif kind == "heal":
                action = lambda _sim: network.heal()
            elif kind == "brownout":
                name, _, factor = target.partition(" x")
                factor = float(factor)
                if factor <= 0.0:
                    raise SimulationError("brownout factor must be positive")
                self._brownouts[name] = factor
                action = lambda _sim, st=stations[name], f=factor: _slow(st, f)
            elif kind == "restore":
                factor = self._brownouts.pop(target, None)
                if factor is None:
                    raise SimulationError(f"restore of {target!r} without a brownout")
                action = lambda _sim, st=stations[target], f=factor: _fast(st, f)
            else:
                raise SimulationError(f"unknown fault kind {kind!r}")
            self.events.append((when, kind, target))
            self._sim.schedule_at(when, action)


def _slow(station: ServiceStation, factor: float) -> None:
    station.mean_service_time *= factor


def _fast(station: ServiceStation, factor: float) -> None:
    station.mean_service_time /= factor


def flap(address: str, start: float, stop: float, period: float) -> List[FaultRow]:
    """Rows alternating ``down``/``up`` every ``period`` over [start, stop),
    ending up."""
    if period <= 0.0:
        raise SimulationError("flap period must be positive")
    rows: List[FaultRow] = []
    when, down = start, True
    while when < stop:
        rows.append((when, "down" if down else "up", address))
        down = not down
        when += period
    if not down:
        rows.append((stop, "up", address))
    return rows


# ----------------------------------------------------------------------
# Recovery invariants
# ----------------------------------------------------------------------


def single_location_violations(log: Sequence[ViewingLogEntry]) -> List[str]:
    """Check the one-viewing-location-per-account rule over a log.

    For each (UserIN, channel), walk entries in issuance order: a
    *renewal* entry must carry the same NetAddr as the entry
    immediately before it.  A renewal from address A landing after the
    account moved to address B means the Channel Manager extended two
    concurrent locations -- the exact breach a restart must not open.
    """
    violations: List[str] = []
    latest: Dict[Tuple[int, str], ViewingLogEntry] = {}
    for entry in log:
        key = (entry.user_id, entry.channel_id)
        previous = latest.get(key)
        if entry.renewal:
            if previous is None:
                violations.append(
                    f"user {entry.user_id} channel {entry.channel_id}: renewal "
                    f"at t={entry.issued_at} with no prior issuance"
                )
            elif previous.net_addr != entry.net_addr:
                violations.append(
                    f"user {entry.user_id} channel {entry.channel_id}: renewal "
                    f"from {entry.net_addr} at t={entry.issued_at} but the "
                    f"account had moved to {previous.net_addr}"
                )
        latest[key] = entry
    return violations


def utime_regressions(before: AttributeSet, after: AttributeSet) -> List[str]:
    """Attributes whose utime went backwards (or vanished) across a restart."""
    regressions: List[str] = []
    after_map = after.utime_map()
    for key, utime in before.utime_map().items():
        if utime is None:
            continue
        recovered = after_map.get(key)
        if recovered is None:
            regressions.append(f"{key}: utime {utime} lost in recovery")
        elif recovered < utime:
            regressions.append(f"{key}: utime regressed {utime} -> {recovered}")
    return regressions


def viewing_log_divergence(
    pre_crash: Sequence[ViewingLogEntry], recovered: Sequence[ViewingLogEntry]
) -> Optional[str]:
    """None if the recovered log starts with exactly the pre-crash log.

    The recovered log may legitimately be *longer* (post-recovery
    traffic); any reordering, loss, or mutation of the pre-crash
    prefix is a divergence.
    """
    if len(recovered) < len(pre_crash):
        return f"recovered log lost entries: {len(recovered)} < {len(pre_crash)}"
    for index, (a, b) in enumerate(zip(pre_crash, recovered)):
        if a != b:
            return f"entry {index} diverged: {a} != {b}"
    return None
