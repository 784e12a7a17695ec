"""The viewer path as four segments, and the four workloads that mix them.

One run plays one broadcast event end to end:

``crowd``   viewers arrive in a flash crowd; each does create_client ->
            LOGIN -> SWITCH -> make_peer -> overlay.join and must
            decrypt one packet; mid-event departures go through
            ``remove_peer`` (churn repair).
``steady``  the surviving audience receives epochs of packets, each
            epoch ending in a key rotation pushed down the tree.
``zap``     logged-in viewers on a sharded, durable, 64-channel
            deployment switch channels, renew tickets and re-login
            while an operator schedules and cancels blackouts.
``rpc``     AsyncClients run LOGIN/SWITCH/RENEWAL as messages over the
            simulator, the virtual network and queued manager farms.

The benchmark contract wants every end-to-end metric on every workload,
so every workload runs all four segments; a workload is the mix that
gives one segment the bulk of the work and keeps the other three at
probe size (``WORKLOADS`` below).  All segments are closed loops in
wall-clock time: one in-process caller issues the next operation when
the previous one returns.  Order and virtual timestamps come from the
seeded generators in ``repro.workload`` and from ``random.Random``
instances derived from ``--seed``; the program sees only those inputs.

Every segment checks the program's outputs against expectations that
follow from the inputs alone (the ``shadow`` state in ``zap``, frame
payloads in ``crowd`` and ``steady``).  A mismatch is a failed
operation: it counts in ``failed`` and in no throughput or percentile.
"""

from __future__ import annotations

import heapq
import random
import shutil
import tempfile
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional, Tuple

#: ``--seconds`` at which the sizes below fill the timed region on the
#: reference machine (2 cores, Python 3.11.7, numpy 2.4.6).
REFERENCE_SECONDS = 16

REGIONS = ("CH", "DE", "FR", "UK")
REGION_WEIGHTS = (0.40, 0.25, 0.12, 0.08)

# -- crowd / steady ------------------------------------------------------
CROWD_CHANNEL = "event"
EVENT_DURATION = 600.0
RAMP = 90.0
MID_DEPARTURES = 0.15
SOURCE_CAPACITY = 32
MAX_LIST_FETCHES = 4
KEY_EPOCH = 60.0
KEY_LEAD = 10.0
#: The crowd segment stops here: every arrival and every mid-event
#: departure has happened, the end-of-event exodus has not started.
PLATEAU = 465.0
STEADY_START = 480.0
PACKET_SIZES = (188, 1316, 4096)
PACKETS_PER_EPOCH = 6

# -- zap -----------------------------------------------------------------
ZAP_CHANNELS = 64
ZAP_ROUNDS = 4
ZAPS_PER_ROUND = 3
ROUND_PERIOD = 1100.0
USER_TICKET_LIFETIME = 1800.0
CHANNEL_TICKET_LIFETIME = 900.0
RENEW_LEAD = 30.0
SECOND_LOCATION_SHARE = 0.05

# -- rpc -----------------------------------------------------------------
RPC_CHANNELS = 8
RPC_BURST = 20
RPC_RENEW_LEAD = 48.0
#: Farm size grows with the fleet so that utilisation during a zapping
#: burst stays near 0.3 on every workload: queueing is visible in the
#: round latency, the farm is not overloaded.
RPC_CLIENTS_PER_SERVER = 30
RPC_SERVICE_TIME = 0.15
RPC_START_WINDOW = 120.0


@dataclass(frozen=True)
class Mix:
    """Sizes of the four segments for one workload at REFERENCE_SECONDS."""

    viewers: int
    epochs: int
    zap_viewers: int
    rpc_clients: int
    rpc_cycles: int
    why: str


WORKLOADS: Dict[str, Mix] = {
    "flash_crowd": Mix(
        viewers=2700, epochs=8, zap_viewers=125, rpc_clients=60, rpc_cycles=2,
        why="cold viewer path dominates: RSA, DRBG padding, selection index and "
            "churn repair do the work; the stream cipher does almost none",
    ),
    "steady_broadcast": Mix(
        viewers=700, epochs=113, zap_viewers=125, rpc_clients=60, rpc_cycles=2,
        why="data plane dominates: packet open/forward and key cascades over a "
            "standing audience; RSA, policy and selection are nearly idle",
    ),
    "zap_renew": Mix(
        viewers=700, epochs=29, zap_viewers=490, rpc_clients=60, rpc_cycles=2,
        why="same managers used warm: ticket cache hits, policy index over 64 "
            "channels rebuilt after writes, sharded viewing log and WAL appends",
    ),
    "rpc_storm": Mix(
        viewers=700, epochs=29, zap_viewers=125, rpc_clients=120, rpc_cycles=4,
        why="event-loop path dominates: sim engine, RPC layer and queued farms "
            "carry LOGIN/SWITCH/RENEWAL as messages; round latency is emergent",
    ),
}


def scaled(mix: Mix, seconds: float, quick: bool) -> Mix:
    factor = seconds / REFERENCE_SECONDS * (0.05 if quick else 1.0)
    return Mix(
        viewers=max(60, round(mix.viewers * factor)),
        epochs=max(4, round(mix.epochs * factor)),
        zap_viewers=max(12, round(mix.zap_viewers * factor)),
        rpc_clients=max(4, round(mix.rpc_clients * factor)),
        rpc_cycles=mix.rpc_cycles,
        why=mix.why,
    )


class Context:
    """Per-pass state: the program namespace, the tracer, the op clock."""

    def __init__(self, api, tracer) -> None:
        self.api = api
        self.tracer = tracer
        self.op = 0
        self.busy = 0.0

    def start(self) -> float:
        self.op += 1
        tracer = self.tracer
        if tracer is not None:
            tracer.op = self.op
            tracer.enabled = True
        return perf_counter()

    def stop(self, started: float) -> float:
        elapsed = perf_counter() - started
        if self.tracer is not None:
            self.tracer.enabled = False
        self.busy += elapsed
        return elapsed


@dataclass
class Segment:
    """What one segment measured."""

    busy_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    samples: Dict[str, List[float]] = field(default_factory=dict)
    counts: Dict[str, float] = field(default_factory=dict)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(message)


# ======================================================================
# crowd + steady: one deployment, one overlay
# ======================================================================


class EventRig:
    def __init__(self, api, seed: int, viewers: int, epochs: int) -> None:
        rng = random.Random(f"{seed}:event")
        self.deployment = api.Deployment(seed=seed, source_capacity=SOURCE_CAPACITY)
        self.deployment.add_free_channel(CROWD_CHANNEL, regions=list(REGIONS))
        workload = api.FlashCrowdWorkload(
            random.Random(rng.randrange(2**63)),
            audience=viewers,
            regions=REGIONS,
            event_duration=EVENT_DURATION,
            ramp=RAMP,
            mid_departure_fraction=MID_DEPARTURES,
        )
        # One client key for the whole audience: per-viewer keygen is
        # ~16 ms of set-up that no viewer-path layer depends on.
        self.fleet_key = api.generate_keypair(
            api.HmacDrbg(seed.to_bytes(8, "big"), b"bench-fleet-key"),
            bits=self.deployment.key_bits,
        )
        self.events = [
            (event.time, event.kind, spec)
            for event, spec in workload.events()
            if event.time <= PLATEAU
        ]
        self.frames = {size: rng.randbytes(size) for size in PACKET_SIZES}
        self.epochs = epochs
        self.overlay = self.deployment.overlay(CROWD_CHANNEL)
        self.server = self.deployment.server(CROWD_CHANNEL)
        self.members: Dict[int, object] = {}


def run_crowd(ctx: Context, rig: EventRig) -> Segment:
    api = ctx.api
    seg = Segment(samples={"join_ms": [], "repair_ms": []})
    deployment, overlay, server = rig.deployment, rig.overlay, rig.server
    source = overlay.source
    frame = rig.frames[1316]
    busy_before = ctx.busy
    joins_ok = deferred = departures = orphans = fetches = 0
    attempts_before = overlay.join_attempts
    next_tick = KEY_EPOCH - KEY_LEAD

    def tick_until(limit: float) -> None:
        nonlocal next_tick
        while next_tick <= limit:
            started = ctx.start()
            source.tick(next_tick)
            ctx.stop(started)
            next_tick += KEY_EPOCH

    for now, kind, spec in rig.events:
        tick_until(now)
        if kind == "leave":
            peer = rig.members.pop(spec.index, None)
            if peer is None or peer.peer_id not in overlay.peers:
                continue
            seg.attempted += 1
            mark = overlay.repair_log.total
            started = ctx.start()
            overlay.remove_peer(peer.peer_id, now=now)
            elapsed = ctx.stop(started)
            departures += 1
            records = overlay.repair_log.since(mark)
            if not records:
                continue
            orphans += len(records)
            stranded = sum(1 for record in records if record.parent_id is None)
            if stranded:
                seg.fail(f"t={now:.1f}: {stranded} orphans found no parent")
            else:
                seg.samples["repair_ms"].append(elapsed * 1e3 / len(records))
            continue

        seg.attempted += 1
        started = ctx.start()
        client = deployment.create_client(
            f"viewer{spec.index}@bench.example.org", "pw",
            region=spec.region, keypair=rig.fleet_key,
        )
        client.login(now=now)
        peer = parent = None
        for _ in range(MAX_LIST_FETCHES):
            fetches += 1
            response = client.switch_channel(CROWD_CHANNEL, now=now)
            if peer is None:
                peer = deployment.make_peer(client, CROWD_CHANNEL, capacity=spec.capacity)
            try:
                parent, _ = overlay.join(peer, response.peers, now=now)
                break
            except api.CapacityError:
                continue
        plaintext = None
        if parent is not None:
            packet = server.emit_packet(now, payload=frame)
            try:
                plaintext = client.receive_packet(packet)
            except api.ReproError:
                plaintext = None
        elapsed = ctx.stop(started)
        if parent is None:
            seg.fail(f"viewer {spec.index}: every list refused after {MAX_LIST_FETCHES} fetches")
            continue
        rig.members[spec.index] = peer
        if plaintext == frame:
            joins_ok += 1
            seg.samples["join_ms"].append(elapsed * 1e3)
            continue
        # Seed-state behaviour, recorded and not worked around: a viewer
        # admitted by a non-source parent inside the key lead window is
        # handed only the *next* serial, so its first packet decrypts
        # when the epoch turns.  It is no failure of the join, but it
        # counts in neither joins_per_s nor the join percentiles.
        epoch_turn = (now // KEY_EPOCH + 1) * KEY_EPOCH
        upcoming = server.upcoming_key(now)
        late = None
        if plaintext is None and upcoming is not None and client.key_ring.has(upcoming.serial):
            try:
                late = client.receive_packet(server.emit_packet(epoch_turn, payload=frame))
            except api.ReproError:
                late = None
        if late == frame:
            deferred += 1
        else:
            seg.fail(f"viewer {spec.index}: first packet never decrypted")

    tick_until(STEADY_START - KEY_LEAD)
    depths = overlay.depths()
    if len(depths) != len(overlay.peers):
        seg.fail(f"{len(overlay.peers) - len(depths)} members unreachable from the source")
    joins = joins_ok + deferred
    seg.busy_s = ctx.busy - busy_before
    seg.counts = {
        "joins_ok": joins_ok,
        "first_packet_deferred": deferred,
        "departures": departures,
        "orphans": orphans,
        "audience": len(overlay.peers),
        "tree_depth_mean": sum(depths.values()) / len(depths) if depths else 0.0,
        "attempts_per_join": (overlay.join_attempts - attempts_before) / max(1, joins + orphans),
        "fetches_per_join": fetches / max(1, joins),
        "join_rejects": sum(p.joins_rejected for p in overlay.peers.values())
        + source.joins_rejected,
    }
    return seg


def run_steady(ctx: Context, rig: EventRig) -> Segment:
    seg = Segment(samples={"rekey_ms": [], "packet_ms": []})
    overlay, server = rig.overlay, rig.server
    source = overlay.source
    audience = list(overlay.peers.values())
    decrypted_before = sum(peer.client.packets_decrypted for peer in audience)
    failures_before = sum(peer.client.decrypt_failures for peer in audience)
    busy_before = ctx.busy
    sent = 0
    for epoch in range(rig.epochs):
        epoch_start = STEADY_START + epoch * KEY_EPOCH
        for slot in range(PACKETS_PER_EPOCH):
            now = epoch_start + slot * (KEY_EPOCH - KEY_LEAD) / PACKETS_PER_EPOCH
            frame = rig.frames[PACKET_SIZES[sent % len(PACKET_SIZES)]]
            seg.attempted += 1
            started = ctx.start()
            packet = server.emit_packet(now, payload=frame)
            source.forward_packet(packet)
            seg.samples["packet_ms"].append(ctx.stop(started) * 1e3)
            sent += 1
        lead = epoch_start + KEY_EPOCH - KEY_LEAD
        serial = server.upcoming_key(lead).serial
        seg.attempted += 1
        started = ctx.start()
        source.tick(lead)
        elapsed = ctx.stop(started)
        missing = sum(1 for peer in audience if not peer.client.key_ring.has(serial))
        if missing:
            seg.fail(f"epoch {epoch}: {missing} viewers lack serial {serial} after the push")
        else:
            seg.samples["rekey_ms"].append(elapsed * 1e3)
    seg.busy_s = ctx.busy - busy_before
    decrypted = sum(peer.client.packets_decrypted for peer in audience) - decrypted_before
    decrypt_failures = sum(peer.client.decrypt_failures for peer in audience) - failures_before
    dropped = sum(peer.packets_dropped_undecryptable for peer in audience)
    if decrypted != sent * len(audience) or decrypt_failures or dropped:
        seg.fail(
            f"decrypted {decrypted} of {sent * len(audience)} deliveries, "
            f"{decrypt_failures} decrypt failures, {dropped} dropped"
        )
        decrypted = 0
    seg.counts = {
        "deliveries": decrypted,
        "packets": sent,
        "audience": len(audience),
        "dropped_undecryptable": dropped,
    }
    return seg


# ======================================================================
# zap: sharded + durable managers, many channels, operator writes
# ======================================================================


@dataclass
class Blackout:
    start: float
    end: float
    scheduled_at: float
    cancelled_at: Optional[float] = None


@dataclass
class ShadowChannel:
    regions: Tuple[str, ...]
    package: Optional[str]
    blackouts: List[Blackout] = field(default_factory=list)


@dataclass
class ShadowViewer:
    """What must be true of one viewer, from the inputs alone."""

    client: object
    email: str
    region: str
    packages: frozenset
    user_expiry: float
    held: Optional[Tuple[str, float]] = None  # (channel, ticket expiry)
    superseded: bool = False


class ZapRig:
    def __init__(self, api, seed: int, viewers: int, out_dir: str) -> None:
        rng = random.Random(f"{seed}:zap")
        self.rng = rng
        self.root = tempfile.mkdtemp(prefix="zap-store-", dir=out_dir)
        deployment = api.Deployment(seed=seed, n_domains=2, partitions=("part-0", "part-1"))
        deployment.enable_durability(root=self.root)
        deployment.enable_sharding()
        self.deployment = deployment
        packages = [f"pkg-{n}" for n in range(4)]
        self.channels: Dict[str, ShadowChannel] = {}
        for rank in range(ZAP_CHANNELS):
            # The line-up is the provider's plan, the same for every
            # seed: every 7th channel is geo-restricted to three of the
            # four regions, every 5th needs a subscription package.
            channel_id = f"ch{rank:02d}"
            if rank % 7 == 3:
                regions = tuple(r for n, r in enumerate(REGIONS) if n != rank % len(REGIONS))
                shadow = ShadowChannel(regions=regions, package=None)
            elif rank % 5 == 4:
                shadow = ShadowChannel(regions=REGIONS, package=packages[rank % len(packages)])
            else:
                shadow = ShadowChannel(regions=REGIONS, package=None)
            if shadow.package is None:
                deployment.add_free_channel(channel_id, regions=list(shadow.regions))
            else:
                deployment.add_subscription_channel(
                    channel_id, regions=list(shadow.regions), package_id=shadow.package
                )
            self.channels[channel_id] = shadow
        channel_ids = list(self.channels)
        self.popularity = api.ZipfChannelPopularity(
            channel_ids, 1.0, random.Random(rng.randrange(2**63))
        )
        self.fleet_key = api.generate_keypair(
            api.HmacDrbg(seed.to_bytes(8, "big"), b"bench-zap-key"), bits=deployment.key_bits
        )
        self.viewers: List[ShadowViewer] = []
        for index in range(viewers):
            email = f"zapper{index}@bench.example.org"
            region = rng.choices(REGIONS, weights=REGION_WEIGHTS)[0]
            held = frozenset(p for p in packages if rng.random() < 0.6)
            deployment.accounts.register(email, "pw")
            for package in sorted(held):
                deployment.accounts.subscribe(email, package)
            client = deployment.create_client(
                email, "pw", region=region, register=False, keypair=self.fleet_key
            )
            client.login(now=0.0)
            self.viewers.append(
                ShadowViewer(client, email, region, held, user_expiry=USER_TICKET_LIFETIME)
            )
        # The itinerary: (time, tie-break, kind, argument).
        self.agenda: List[tuple] = []
        order = 0
        second_locations = max(1, round(viewers * SECOND_LOCATION_SHARE))
        for round_no in range(ZAP_ROUNDS):
            base = 5.0 + round_no * ROUND_PERIOD
            for index in range(viewers):
                times = sorted(rng.uniform(base, base + 195.0) for _ in range(ZAPS_PER_ROUND))
                for slot, when in enumerate(times):
                    last = slot == ZAPS_PER_ROUND - 1
                    self.agenda.append(
                        (when, order, "zap", (index, self.popularity.sample(), last))
                    )
                    order += 1
            target = channel_ids[round_no % 8]
            window = (base + 75.5, base + 135.5)
            self.agenda.append((base + 55.25, order, "blackout", (target, window)))
            self.agenda.append((base + 115.25, order + 1, "cancel", (target,)))
            order += 2
            for slot, index in enumerate(rng.sample(range(viewers), second_locations)):
                self.agenda.append((base + 200.0 + slot * 0.01, order, "second", (index,)))
                order += 1
        heapq.heapify(self.agenda)
        self._order = order

    def push(self, when: float, kind: str, argument: tuple) -> None:
        self._order += 1
        heapq.heappush(self.agenda, (when, self._order, kind, argument))

    def decide(self, viewer: ShadowViewer, channel_id: str, now: float):
        """The outcome the inputs imply: ("ACCEPT", expiry) or ("REJECT", None)."""
        channel = self.channels[channel_id]
        if viewer.region not in channel.regions:
            return "REJECT", None
        if channel.package is not None and channel.package not in viewer.packages:
            return "REJECT", None
        standing = [
            b for b in channel.blackouts
            if b.scheduled_at <= now and (b.cancelled_at is None or now < b.cancelled_at)
        ]
        if any(b.start <= now <= b.end for b in standing):
            return "REJECT", None
        expiry = min(now + CHANNEL_TICKET_LIFETIME, viewer.user_expiry)
        for blackout in standing:
            if now < blackout.start <= expiry:
                expiry = blackout.start
        return "ACCEPT", expiry

    def close(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)


def run_zap(ctx: Context, rig: ZapRig) -> Segment:
    api = ctx.api
    seg = Segment(samples={"switch_ms": [], "renew_ms": [], "write_ms": [], "login_ms": []})
    deployment = rig.deployment
    busy_before = ctx.busy
    ok_switches = ok_renewals = rejects = refused = skipped_second = 0
    rejections_before = sum(cm.rejections for cm in deployment.channel_managers.values())

    def relogin_if_needed(viewer: ShadowViewer, now: float) -> None:
        # Re-login once the User Ticket would cap the next Channel Ticket.
        if viewer.user_expiry >= now + CHANNEL_TICKET_LIFETIME:
            return
        seg.attempted += 1
        started = ctx.start()
        ticket = viewer.client.login(now=now)
        seg.samples["login_ms"].append(ctx.stop(started) * 1e3)
        viewer.user_expiry = now + USER_TICKET_LIFETIME
        if abs(ticket.expire_time - viewer.user_expiry) > 1e-6:
            seg.fail(f"{viewer.email}: user ticket expires {ticket.expire_time}, expected {viewer.user_expiry}")

    def ticket_op(call):
        """Time one SWITCH or renewal; classify what the program answered."""
        seg.attempted += 1
        started = ctx.start()
        try:
            outcome, got = "ACCEPT", call().ticket.expire_time
        except api.PolicyRejectError:
            outcome, got = "REJECT", None
        except api.RenewalRefusedError:
            outcome, got = "REFUSED", None
        except api.ReproError as exc:
            outcome, got = type(exc).__name__, None
        return outcome, got, ctx.stop(started)

    def switch(viewer: ShadowViewer, client, channel_id: str, now: float) -> bool:
        """One timed SWITCH; True when the program agreed with the shadow."""
        nonlocal ok_switches, rejects
        expected, expiry = rig.decide(viewer, channel_id, now)
        outcome, got, elapsed = ticket_op(lambda: client.switch_channel(channel_id, now=now))
        if outcome != expected or (expiry is not None and abs(got - expiry) > 1e-6):
            seg.fail(
                f"t={now:.2f} {viewer.email} -> {channel_id}: got {outcome} {got}, "
                f"expected {expected} {expiry}"
            )
            return False
        ok_switches += 1
        seg.samples["switch_ms"].append(elapsed * 1e3)
        if outcome == "REJECT":
            rejects += 1
        elif client is viewer.client:
            viewer.held = (channel_id, expiry)
            viewer.superseded = False
        return True

    while rig.agenda:
        now, _, kind, argument = heapq.heappop(rig.agenda)
        if kind == "zap":
            index, channel_id, last = argument
            viewer = rig.viewers[index]
            relogin_if_needed(viewer, now)
            switch(viewer, viewer.client, channel_id, now)
            if last and viewer.held is not None:
                renew_at = viewer.held[1] - RENEW_LEAD
                if renew_at > now:
                    rig.push(renew_at, "renew", (index,))
        elif kind == "renew":
            viewer = rig.viewers[argument[0]]
            relogin_if_needed(viewer, now)
            channel_id = viewer.held[0]
            if viewer.superseded:
                expected, expiry = "REFUSED", None
            else:
                expected, expiry = rig.decide(viewer, channel_id, now)
            outcome, got, elapsed = ticket_op(lambda: viewer.client.renew_channel_ticket(now=now))
            if outcome != expected or (expiry is not None and abs(got - expiry) > 1e-6):
                seg.fail(
                    f"t={now:.2f} renewal {viewer.email} on {channel_id}: got {outcome} {got}, "
                    f"expected {expected} {expiry}"
                )
                continue
            ok_renewals += 1
            seg.samples["renew_ms"].append(elapsed * 1e3)
            if outcome == "ACCEPT":
                viewer.held = (channel_id, expiry)
            else:
                refused += outcome == "REFUSED"
                viewer.held = None
        elif kind == "second":
            # The account shows up at a second location on the channel
            # the first location is watching: the newer location wins,
            # so the first location's renewal must be refused.
            viewer = rig.viewers[argument[0]]
            if viewer.held is None or viewer.held[1] - RENEW_LEAD <= now:
                skipped_second += 1
                continue
            second = deployment.create_client(
                viewer.email, "pw", region=viewer.region, register=False,
                keypair=rig.fleet_key,
            )
            seg.attempted += 1
            started = ctx.start()
            second.login(now=now)
            seg.samples["login_ms"].append(ctx.stop(started) * 1e3)
            roamer = ShadowViewer(
                second, viewer.email, viewer.region, viewer.packages,
                user_expiry=now + USER_TICKET_LIFETIME,
            )
            expected, _ = rig.decide(roamer, viewer.held[0], now)
            if switch(roamer, second, viewer.held[0], now) and expected == "ACCEPT":
                viewer.superseded = True
        elif kind == "blackout":
            channel_id, (start, end) = argument
            seg.attempted += 1
            started = ctx.start()
            deployment.policy_manager.schedule_blackout(channel_id, start, end, now)
            seg.samples["write_ms"].append(ctx.stop(started) * 1e3)
            rig.channels[channel_id].blackouts.append(Blackout(start, end, scheduled_at=now))
        elif kind == "cancel":
            (channel_id,) = argument
            seg.attempted += 1
            started = ctx.start()
            removed = deployment.policy_manager.cancel_blackout(channel_id, now)
            seg.samples["write_ms"].append(ctx.stop(started) * 1e3)
            if not removed:
                seg.fail(f"t={now:.2f} cancel_blackout({channel_id}) removed nothing")
            rig.channels[channel_id].blackouts[-1].cancelled_at = now

    seg.busy_s = ctx.busy - busy_before
    program_rejections = (
        sum(cm.rejections for cm in deployment.channel_managers.values()) - rejections_before
    )
    if program_rejections != rejects:
        seg.fail(f"channel managers counted {program_rejections} rejections, shadow {rejects}")
    seg.counts = {
        "switches_ok": ok_switches,
        "renewals_ok": ok_renewals,
        "rejects": rejects,
        "second_location_refused": refused,
        "second_location_skipped": skipped_second,
        "wal_bytes": sum(store.wal_bytes() for store in deployment.stores.values()),
        "store_appends": sum(s.stats.records_appended for s in deployment.stores.values()),
    }
    return seg


# ======================================================================
# rpc: the protocol as messages over the event loop
# ======================================================================


class RpcRig:
    def __init__(self, api, seed: int, clients: int, cycles: int) -> None:
        rng = random.Random(f"{seed}:rpc")
        self.rng = rng
        partitions = ("rpc-0", "rpc-1")
        deployment = api.Deployment(seed=seed, partitions=partitions)
        self.deployment = deployment
        self.channels = [f"rpc{n}" for n in range(RPC_CHANNELS)]
        self.cm_address: Dict[str, str] = {}
        for n, channel_id in enumerate(self.channels):
            partition = partitions[n % len(partitions)]
            deployment.add_free_channel(channel_id, regions=list(REGIONS), partition=partition)
            self.cm_address[channel_id] = f"rpc://cm/{partition}"
        self.sim = api.Simulator()
        table = {
            (region, "dc"): rtt
            for (region, _site), rtt in api.zattoo_like_rtt_table().items()
        }
        latency = api.LatencyModel(random.Random(rng.randrange(2**63)), table=table)
        self.network = api.VirtualNetwork(self.sim, latency, random.Random(rng.randrange(2**63)))
        self.stations = []
        servers = max(2, round(clients / RPC_CLIENTS_PER_SERVER))

        def station(name: str):
            made = api.ServiceStation(
                self.sim, servers, RPC_SERVICE_TIME,
                random.Random(rng.randrange(2**63)), name=name,
            )
            made.record_samples = False
            self.stations.append(made)
            return made

        self.um_address = "rpc://um"
        api.wire_user_manager(
            self.network, deployment.user_managers["domain-0"], self.um_address,
            station=station("um"),
        )
        for partition in partitions:
            api.wire_channel_manager(
                self.network, deployment.channel_managers[partition],
                f"rpc://cm/{partition}", station=station(f"cm-{partition}"),
            )
        self.popularity = api.ZipfChannelPopularity(
            self.channels, 1.0, random.Random(rng.randrange(2**63))
        )
        self.clients = []
        for index in range(clients):
            email = f"rpc{index}@bench.example.org"
            region = rng.choices(REGIONS, weights=REGION_WEIGHTS)[0]
            deployment.accounts.register(email, "pw")
            self.clients.append(
                api.AsyncClient(
                    network=self.network, email=email, password="pw",
                    version=deployment.client_version, image=deployment.client_image,
                    net_addr=deployment.geo.random_address(region, deployment.rng),
                    region=region, drbg=api.HmacDrbg(email.encode(), b"bench-rpc"),
                )
            )
        cycle = RPC_BURST * 15.0 + CHANNEL_TICKET_LIFETIME
        self.horizon = cycles * cycle


def run_rpc(ctx: Context, rig: RpcRig) -> Segment:
    seg = Segment(samples={"switch_virt_ms": []})
    sim, rng = rig.sim, rig.rng
    done = {"LOGIN": 0, "SWITCH": 0, "RENEWAL": 0}
    started_ops = {"LOGIN": 0, "SWITCH": 0, "RENEWAL": 0}
    errors: List[Exception] = []

    def drive(client, burst_left: int) -> None:
        """Issue this client's next operation (runs inside the event loop)."""
        now = sim.now
        if now >= rig.horizon:
            return
        ticket = client.user_ticket
        if ticket is None or ticket.expire_time < now + CHANNEL_TICKET_LIFETIME:
            started_ops["LOGIN"] += 1

            def logged_in() -> None:
                done["LOGIN"] += 1
                drive(client, burst_left)

            client.start_login(rig.um_address, on_done=logged_in, on_fail=errors.append)
            return
        if burst_left > 0:
            channel_id = rig.popularity.sample()
            started_ops["SWITCH"] += 1
            sent_at = now

            def switched(response) -> None:
                done["SWITCH"] += 1
                seg.samples["switch_virt_ms"].append((sim.now - sent_at) * 1e3)
                if response.ticket.channel_id != channel_id:
                    errors.append(AssertionError(f"ticket for {response.ticket.channel_id}"))
                client.bench_channel = channel_id
                pause = rng.uniform(7.5, 22.5)
                if burst_left == 1:
                    pause = max(pause, response.ticket.expire_time - RPC_RENEW_LEAD - sim.now)
                sim.schedule(pause, lambda _sim: drive(client, burst_left - 1))

            client.start_switch(
                rig.cm_address[channel_id], channel_id,
                on_done=switched, on_fail=errors.append,
            )
            return
        started_ops["RENEWAL"] += 1

        def renewed(response) -> None:
            done["RENEWAL"] += 1
            if not response.ticket.renewal:
                errors.append(AssertionError("renewal ticket without the renewal bit"))
            sim.schedule(rng.uniform(7.5, 22.5), lambda _sim: drive(client, RPC_BURST))

        client.start_renewal(
            rig.cm_address[client.bench_channel], on_done=renewed, on_fail=errors.append
        )

    for client in rig.clients:
        sim.schedule_at(
            rng.uniform(0.0, RPC_START_WINDOW),
            lambda _sim, client=client: drive(client, RPC_BURST),
        )

    events_before = sim.events_processed
    started = ctx.start()
    sim.run()
    seg.busy_s = ctx.stop(started)
    completions = sum(done.values())
    seg.attempted = sum(started_ops.values())
    for exc in errors:
        seg.fail(f"rpc on_fail: {type(exc).__name__}: {exc}")
    for _ in range(seg.attempted - completions - len(errors)):
        seg.fail("rpc operation never completed")
    arrivals = sum(s.stats.completions for s in rig.stations)
    waited = sum(s.stats.total_sojourn - s.stats.busy_time for s in rig.stations)
    seg.counts = {
        "completions": completions if not errors else 0,
        "logins": done["LOGIN"],
        "switches": done["SWITCH"],
        "renewals": done["RENEWAL"],
        "events": sim.events_processed - events_before,
        "virtual_s": sim.now,
        "station_wait_virt_ms_mean": waited / arrivals * 1e3 if arrivals else 0.0,
        "station_utilization": (
            sum(s.stats.busy_time for s in rig.stations)
            / (sum(s.n_servers for s in rig.stations) * sim.now)
            if sim.now else 0.0
        ),
        "timeouts": sum(1 for exc in errors if type(exc).__name__ == "RpcTimeoutError"),
    }
    return seg


# ======================================================================
# one pass = set-up of all rigs, then the four segments
# ======================================================================


class Rigs:
    def __init__(self, api, seed: int, mix: Mix, out_dir: str) -> None:
        started = perf_counter()
        self.event = EventRig(api, seed, mix.viewers, mix.epochs)
        self.zap = ZapRig(api, seed, mix.zap_viewers, out_dir)
        self.rpc = RpcRig(api, seed, mix.rpc_clients, mix.rpc_cycles)
        self.setup_s = perf_counter() - started

    def close(self) -> None:
        self.zap.close()


def iter_segments(ctx: Context, rigs: Rigs):
    """Run the four segments in event order, yielding each as it ends."""
    yield "crowd", run_crowd(ctx, rigs.event)
    yield "steady", run_steady(ctx, rigs.event)
    yield "zap", run_zap(ctx, rigs.zap)
    yield "rpc", run_rpc(ctx, rigs.rpc)
