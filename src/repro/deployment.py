"""Full-system deployment builder.

Wires every component of Fig. 1 into a working functional service:
Account Manager, Redirection Manager, one or more User Manager farms
(Authentication Domains), the Channel Policy Manager, one or more
Channel Manager farms (Channel Listing Partitions), per-channel
Channel Servers and overlays, and a client factory.

This is the entry point most examples and integration tests use::

    deployment = Deployment(seed=7)
    deployment.add_free_channel("ch1", regions=["CH", "DE"])
    client = deployment.create_client("alice@example.org", "pw", region="CH")
    client.login(now=0.0)
    response = client.switch_channel("ch1", now=1.0)
    peer = deployment.make_peer(client, "ch1")
    deployment.overlay("ch1").join(peer, response.peers, now=1.5)

Construction rule (DESIGN.md section 6): every manager instance comes
to exist in :meth:`Deployment._stand_up`, fed by its :class:`Farm`
record, and facilities are attached by the ``_wire_*`` functions only
-- an ``enable_*`` sets its field and re-wires everything live.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.accounts import AccountManager
from repro.core.attributes import (
    ATTR_REGION,
    ATTR_SUBSCRIPTION,
    Attribute,
    AttributeSet,
)
from repro.core.channel_manager import ChannelManager
from repro.core.channel_server import ChannelServer
from repro.core.client import Client
from repro.core.directory import ServiceDirectory
from repro.core.policy import Decision, Policy, PolicyCondition
from repro.core.policy_manager import ChannelPolicyManager
from repro.core.redirection import ManagerEndpoint, RedirectionManager
from repro.core.user_manager import UserManager
from repro.crypto.drbg import HmacDrbg
from repro.crypto.rsa import RsaPrivateKey, generate_keypair
from repro.errors import ReproError
from repro.geo.database import GeoDatabase
from repro.metrics.adversary import MisbehaviorCounters
from repro.metrics.dataplane import counters as dataplane_counters
from repro.metrics.hotpath import counters as hotpath_counters
from repro.metrics.registry import MetricsRegistry
from repro.metrics.selection import counters as selection_counters
from repro.resilience.counters import ResilienceCounters
from repro.p2p.overlay import ChannelOverlay
from repro.p2p.peer import Peer
from repro.p2p.scorecard import JOIN_FLOOD, PeerScorecard
from repro.p2p.selection import RankedPeerListProvider
from repro.trace.span import Tracer

#: The client software version every deployment registers by default.
DEFAULT_CLIENT_VERSION = "4.0.5"
_CLIENT_IMAGE_SIZE = 8192


@dataclass
class Farm:
    """What one manager farm keeps across the lives of its instances.

    The credentials (keypair + farm secret) are the deployment's
    key-management layer: they outlive any single process, and crash
    recovery and replica spawning hand them back to the instance being
    stood up.  The primary lives in ``Deployment.user_managers`` /
    ``channel_managers`` (a crash removes it there).
    """

    kind: str  # "um", "cm" or "cpm"
    name: str
    signing_key: RsaPrivateKey
    farm_secret: bytes
    #: UserIN allocation (start, stride) of a User Manager farm;
    #: recovery and replica spawning reuse the creation-time values.
    user_id_params: Tuple[int, int] = (1, 1)
    #: Recoveries so far; personalises each recovered instance's DRBG.
    generation: int = 0
    #: Durable store shared by every instance, once durability is on.
    store: Optional[object] = None
    #: Failover instances in spawn order (``<address>!<n>``, n from 1).
    replicas: list = field(default_factory=list)

    @property
    def address(self) -> str:
        return f"{self.kind}://{self.name}"

    def derived_drbg(self, label: str) -> HmacDrbg:
        """A DRBG for one replica or recovery, keyed by the farm secret."""
        return HmacDrbg(self.farm_secret, f"{self.kind}-{label}".encode())


class Deployment:
    """A complete single-provider service, functionally wired.

    Parameters
    ----------
    seed:
        Master seed; everything (keys, addresses, nonces) derives from
        it deterministically.
    n_domains:
        Number of Authentication Domains (User Manager farms).
    partitions:
        Channel Listing Partition names (one Channel Manager farm per
        partition).
    key_bits:
        RSA modulus size used throughout (512 keeps simulations fast).
    user_ticket_lifetime / channel_ticket_lifetime:
        Ticket lifetimes in seconds.
    """

    def __init__(
        self,
        seed: int = 7,
        n_domains: int = 1,
        partitions: Sequence[str] = ("default",),
        key_bits: int = 512,
        user_ticket_lifetime: float = 1800.0,
        channel_ticket_lifetime: float = 900.0,
        substream_count: int = 1,
        source_capacity: int = 16,
    ) -> None:
        if n_domains < 1 or not partitions:
            raise ReproError("need at least one domain and one partition")
        self.key_bits = key_bits
        self.substream_count = substream_count
        self.source_capacity = source_capacity
        self._drbg = HmacDrbg(seed.to_bytes(8, "big", signed=False), b"deployment")
        self.rng = random.Random(seed)
        self.geo = GeoDatabase()
        self.directory = ServiceDirectory()
        self.accounts = AccountManager()
        self.policy_manager = ChannelPolicyManager()
        self.user_ticket_lifetime = user_ticket_lifetime
        self.channel_ticket_lifetime = channel_ticket_lifetime

        #: Per-deployment metric registry; counter sources register as
        #: subsystems come up (durable stores, the tracer).
        self.metrics = MetricsRegistry()
        self.metrics.register("hotpath", hotpath_counters)
        self.metrics.register("dataplane", dataplane_counters)
        self.metrics.register("selection", selection_counters)
        #: Shared resilience counter block: every retry loop, breaker,
        #: and degraded-mode transition built against this deployment
        #: should aggregate here so ``metrics`` reports them.
        self.resilience = ResilienceCounters()
        self.metrics.register("resilience", self.resilience)

        # Facilities: fields the ``_wire_*`` functions read.
        #: Shared tracer, set by :meth:`enable_tracing`.
        self.tracer: Optional[Tracer] = None
        #: Byzantine detection plane, set by
        #: :meth:`enable_misbehavior_detection`: a shared
        #: :class:`~repro.p2p.scorecard.PeerScorecard` plus its
        #: :class:`~repro.metrics.adversary.MisbehaviorCounters`.
        self.scorecard = None
        self.misbehavior: Optional[MisbehaviorCounters] = None
        self._join_rate_limit: Optional[Tuple[int, float]] = None
        #: Sharded manager tier, set by :meth:`enable_sharding`.
        self.sharding = None
        #: Durable stores by component name, populated by
        #: :meth:`enable_durability`.
        self.stores: Dict[str, object] = {}
        self._store_root: Optional[str] = None
        self._store_snapshot_every: Optional[int] = None

        # Client image for attestation: one registered release.
        self.client_version = DEFAULT_CLIENT_VERSION
        self.client_image = self._drbg.fork(b"client-image").generate(_CLIENT_IMAGE_SIZE)

        # Channel Policy Manager endpoint (clients learn it from the
        # Redirection Manager).
        cpm_key = generate_keypair(self._drbg.fork(b"cpm-key"), bits=key_bits)
        self.directory.register("cpm://main", self.policy_manager)
        self.redirection = RedirectionManager(
            ManagerEndpoint(address="cpm://main", public_key=cpm_key.public_key)
        )

        #: One record per UM/CM farm, by address (see :meth:`farm`).
        self._farms: Dict[str, Farm] = {}
        # User Manager farms, one per Authentication Domain; legacy
        # domains interleave UserINs with the domain count as stride.
        self.user_managers: Dict[str, UserManager] = {}
        for index in range(n_domains):
            self._new_user_farm(index, (index + 1, n_domains))
        self._next_domain_index = n_domains

        cpm_secret = self._drbg.fork(b"cpm-secret").generate(32)
        self._cpm_farm = Farm("cpm", "main", cpm_key, cpm_secret)
        self.policy_manager.enable_client_access(
            farm_secret=cpm_secret,
            drbg=self._drbg.fork(b"cpm-runtime"),
            user_manager_keys=self._user_manager_keys(),
        )

        # Peer-list pipeline: SWITCH2 lists are ranked by (same-AS,
        # same-region, spare upload capacity) by default.  The provider
        # holds a *reference* to self.overlays, so channels added later
        # are covered automatically.  The uniform sampler remains
        # available as an A/B baseline via :meth:`use_uniform_peer_lists`.
        self.servers: Dict[str, ChannelServer] = {}
        self.overlays: Dict[str, ChannelOverlay] = {}
        # The provider takes no rng (ties break on a stable keyed hash),
        # but this fork must stay: HmacDrbg.fork() consumes 32 bytes of
        # the parent, so dropping the draw would re-key every CM farm,
        # client and overlay salt forked after it and change every
        # seeded transcript (tests/integration/test_seed_pin.py).
        self._drbg.fork(b"ranked-peer-lists")
        self.ranked_provider = RankedPeerListProvider(
            self.overlays, self.geo, same_region_fraction=0.75
        )
        self._active_peer_list_provider = self.ranked_provider
        # Churn repair reuses the ranking that builds SWITCH2 lists.
        self._repair_selector = self.ranked_provider.select_repair

        # Channel Manager farms, one per partition.
        self.channel_managers: Dict[str, ChannelManager] = {}
        for name in partitions:
            self._new_farm("cm", name, f"cm-{name}")
        self._next_shard_partition_index = 0

        self._client_counter = 0
        self._epg = None

    @property
    def epg(self):
        """The provider's Electronic Program Guide (lazily created)."""
        if self._epg is None:
            from repro.core.epg import ElectronicProgramGuide

            self._epg = ElectronicProgramGuide(self.policy_manager)
        return self._epg

    def analytics_for(self, channel_id: str):
        """Viewing analytics over the channel's partition log."""
        from repro.core.analytics import ViewingAnalytics

        manager = self.channel_manager_for(channel_id)
        return ViewingAnalytics(manager.viewing_log(), manager.ticket_lifetime)

    # ------------------------------------------------------------------
    # Farms: one record each, one place an instance comes to exist
    # ------------------------------------------------------------------

    def farm(self, address: str) -> Farm:
        """The record of the farm at ``um://<domain>`` / ``cm://<partition>``."""
        farm = self._farms.get(address)
        if farm is None:
            raise ReproError(f"unknown farm: {address}")
        return farm

    @property
    def um_replicas(self) -> Dict[str, List[UserManager]]:
        """Failover User Managers by domain (primaries not included)."""
        return {f.name: f.replicas for f in self._farms_of("um") if f.replicas}

    @property
    def cm_replicas(self) -> Dict[str, List[ChannelManager]]:
        """Failover Channel Managers by partition (primaries not included)."""
        return {f.name: f.replicas for f in self._farms_of("cm") if f.replicas}

    def _farms_of(self, kind: str) -> List[Farm]:
        return [farm for farm in self._farms.values() if farm.kind == kind]

    def _primaries(self, farm: Farm) -> dict:
        return self.user_managers if farm.kind == "um" else self.channel_managers

    def _instances(self, farm: Farm) -> list:
        """A farm's live instances: the primary (unless crashed), then replicas."""
        primary = self._primaries(farm).get(farm.name)
        return ([] if primary is None else [primary]) + farm.replicas

    def live_managers(self, kind: str) -> Iterator:
        """Every live manager instance of one kind (``"um"`` / ``"cm"``)."""
        for farm in self._farms_of(kind):
            yield from self._instances(farm)

    def _user_manager_keys(self) -> list:
        # From the farm records, not the live primaries: a verifier
        # stood up while a domain is down must still accept its tickets.
        return [farm.signing_key.public_key for farm in self._farms_of("um")]

    def _new_farm(self, kind: str, name: str, label: str, user_id_params=(1, 1)):
        """Draw a new farm's credentials and stand its primary up.  The
        draw order (``label`` fork, then ``key``, ``secret``, ``runtime``
        off it) is load-bearing: ``HmacDrbg.fork`` consumes parent
        output, so every seeded transcript depends on it."""
        drbg = self._drbg.fork(label.encode())
        signing_key = generate_keypair(drbg.fork(b"key"), bits=self.key_bits)
        farm_secret = drbg.fork(b"secret").generate(32)
        farm = Farm(kind, name, signing_key, farm_secret, user_id_params)
        self._farms[farm.address] = farm
        return self._stand_up(farm, drbg.fork(b"runtime"))

    def _new_user_farm(self, index: int, user_id_params: Tuple[int, int]) -> UserManager:
        return self._new_farm("um", f"domain-{index}", f"um-{index}", user_id_params)

    def _build_manager(self, farm: Farm, drbg: HmacDrbg, recover: bool):
        """The one place a User / Channel Manager is constructed -- or,
        with ``recover``, replayed from its farm's store."""
        settings = dict(
            signing_key=farm.signing_key, farm_secret=farm.farm_secret, drbg=drbg
        )
        if recover:
            settings["snapshot_every"] = self._store_snapshot_every
        if farm.kind == "um":
            user_id_start, user_id_stride = farm.user_id_params
            settings.update(
                geo=self.geo,
                ticket_lifetime=self.user_ticket_lifetime,
                domain=farm.name,
                user_id_start=user_id_start,
                user_id_stride=user_id_stride,
            )
            if recover:
                return UserManager.recover(farm.store, **settings)
            return UserManager(**settings)
        settings.update(
            user_manager_keys=self._user_manager_keys(),
            ticket_lifetime=self.channel_ticket_lifetime,
            partition=farm.name,
        )
        if recover:
            return ChannelManager.recover(farm.store, **settings)
        return ChannelManager(**settings)

    def _stand_up(self, farm: Farm, drbg: HmacDrbg, replica: int = 0, recover: bool = False):
        """Bring one instance of a farm to life: build, join, wire, register.

        Every instance takes this path -- first primary, late partition,
        reshard target, replica ``n`` (at ``<address>!<n>``) or crash
        recovery.  Section V: farm instances share one user database /
        viewing log, so a new replica *and a recovered instance* adopt a
        live sibling's shared objects (every sibling mutation was
        journaled to the farm's store, so what recovery replayed is
        content-equal): the one-viewing-location rule only holds if
        whichever instance handles a renewal consults the same index.
        """
        address = f"{farm.address}!{replica}" if replica else farm.address
        manager = self._build_manager(farm, drbg, recover)
        siblings = self._instances(farm)
        if siblings:
            siblings[0].share_state_with(manager)
        if farm.kind == "um":
            self.policy_manager.add_attribute_list_listener(
                manager.receive_channel_attribute_list
            )
            self.accounts.add_listener(manager.sync_account)
            endpoint = ManagerEndpoint(address=address, public_key=manager.public_key)
            if replica:
                self.redirection.add_replica(farm.name, endpoint)
            elif recover:
                self.redirection.mark_up(address)
            else:
                manager.register_client_image(self.client_version, self.client_image)
                self.redirection.register_domain(farm.name, endpoint)
        else:
            self.policy_manager.add_channel_list_listener(manager.receive_channel_list)
        self.directory.register(address, manager)
        if farm.store is not None and not recover:
            manager.attach_store(farm.store, snapshot_every=self._store_snapshot_every)
        self._wire_manager(manager)
        if replica:
            farm.replicas.append(manager)
        else:
            self._primaries(farm)[farm.name] = manager
        return manager

    def _add_replicas(self, farm: Farm, count: int) -> list:
        if farm.name not in self._primaries(farm):
            raise ReproError(f"{farm.address} has no live primary")
        created = []
        for _ in range(count):
            n = len(farm.replicas) + 1
            drbg = farm.derived_drbg(f"{farm.name}-replica-{n}")
            created.append(self._stand_up(farm, drbg, replica=n))
        return created

    def _crash(self, farm: Farm):
        dead = self._primaries(farm).pop(farm.name, None)
        if dead is None:
            raise ReproError(f"{farm.address} has no live primary")
        if farm.kind == "um":
            self.policy_manager.remove_attribute_list_listener(
                dead.receive_channel_attribute_list
            )
            self.accounts.remove_listener(dead.sync_account)
            self.redirection.mark_down(farm.address)
        else:
            self.policy_manager.remove_channel_list_listener(dead.receive_channel_list)
        self.directory.unregister(farm.address)
        return dead

    def _recover(self, farm: Farm):
        if farm.store is None:
            raise ReproError(f"no durable store for {farm.address}")
        farm.generation += 1
        drbg = farm.derived_drbg(f"recovery-{farm.generation}")
        return self._stand_up(farm, drbg, recover=True)

    # ------------------------------------------------------------------
    # Facility wiring: the only code that attaches a facility
    # ------------------------------------------------------------------

    def _wire_manager(self, manager) -> None:
        manager.tracer = self.tracer
        if isinstance(manager, ChannelManager):
            manager.set_peer_list_provider(self._active_peer_list_provider)
            if self._join_rate_limit is not None:
                manager.set_join_rate_limit(*self._join_rate_limit)
                manager.rate_limit_listener = self._on_rate_limited
            if self.sharding is not None:
                self.sharding.install_router(manager)

    def _wire_channel(self, server: ChannelServer, overlay: ChannelOverlay) -> None:
        server.tracer = overlay.source.tracer = self.tracer
        overlay.scorecard = self.scorecard
        overlay.repair_selector = self._repair_selector

    def _wire_client(self, client: Client) -> None:
        client.tracer = self.tracer

    def _wire_peer(self, peer: Peer) -> None:
        peer.tracer = self.tracer
        peer.scorecard = self.scorecard
        if self.scorecard is not None:
            self.scorecard.note_address(peer.peer_id, peer.address)

    def _wire_all(self) -> None:
        """Re-apply every facility to everything live (each is idempotent)."""
        self.redirection.tracer = self.tracer
        if self.scorecard is not None:
            self.scorecard.tracer = self.tracer
        for farm in self._farms.values():
            for manager in self._instances(farm):
                self._wire_manager(manager)
        for channel_id, overlay in self.overlays.items():
            self._wire_channel(self.servers[channel_id], overlay)
            for peer in overlay.peers.values():
                self._wire_peer(peer)

    # ------------------------------------------------------------------
    # Channel provisioning
    # ------------------------------------------------------------------

    def _peer_list_provider(self, channel_id: str, exclude_addr: str, count: int):
        overlay = self.overlays.get(channel_id)
        if overlay is None:
            return []
        return overlay.sample_peers(channel_id, exclude_addr, count)

    def use_uniform_peer_lists(self) -> None:
        """Fall back to uniform sampling (the A/B baseline arm).

        Points every CM instance at the uniform sampler and every
        overlay's churn repair at the uniform draw, now and later.
        """
        self._active_peer_list_provider = self._peer_list_provider
        self._repair_selector = None
        self._wire_all()

    def add_channel(
        self,
        channel_id: str,
        attributes: AttributeSet,
        policies: List[Policy],
        now: float = 0.0,
        partition: Optional[str] = None,
        key_epoch: float = 60.0,
        encrypted: bool = True,
    ) -> None:
        """Provision a channel: metadata, server, overlay, CM routing.

        With sharding enabled, an unpinned channel's partition comes
        from the channel directory (consistent-hash placement over the
        CM shards); otherwise the first partition takes everything.
        """
        if partition is None:
            if self.sharding is not None:
                partition = self.sharding.channel_directory.shard_for(channel_id)
            else:
                partition = next(iter(self.channel_managers))
        if partition not in self.channel_managers:
            raise ReproError(f"unknown partition: {partition}")
        self.policy_manager.add_channel(
            channel_id, now, attributes=attributes, policies=policies, partition=partition
        )
        self.policy_manager.set_channel_manager(channel_id, f"cm://{partition}", now)
        server = ChannelServer(
            channel_id,
            self._drbg.fork(f"server-{channel_id}".encode()),
            key_epoch=key_epoch,
            encrypted=encrypted,
            start_time=now,
        )
        overlay = ChannelOverlay(
            server,
            cm_public_key=self.channel_managers[partition].public_key,
            drbg=self._drbg.fork(f"overlay-{channel_id}".encode()),
            rng=random.Random(self.rng.randrange(2**63)),
            source_address=self.geo.random_address("CH", self.rng),
            source_capacity=self.source_capacity,
            substream_count=self.substream_count,
        )
        self._wire_channel(server, overlay)
        self.servers[channel_id] = server
        self.overlays[channel_id] = overlay

    def add_free_channel(
        self,
        channel_id: str,
        regions: Sequence[str],
        now: float = 0.0,
        partition: Optional[str] = None,
        **kwargs,
    ) -> None:
        """A free-to-view channel viewable from the given regions."""
        attributes = AttributeSet()
        policies: List[Policy] = []
        for region in regions:
            attributes.add(Attribute(name=ATTR_REGION, value=region))
            policies.append(
                Policy.of(
                    priority=50,
                    conditions=[PolicyCondition(name=ATTR_REGION, value=region)],
                    action=Decision.ACCEPT,
                    label=f"free-{region}",
                )
            )
        self.add_channel(channel_id, attributes, policies, now, partition, **kwargs)

    def add_subscription_channel(
        self,
        channel_id: str,
        regions: Sequence[str],
        package_id: str,
        now: float = 0.0,
        partition: Optional[str] = None,
        **kwargs,
    ) -> None:
        """A premium channel: region AND current subscription required."""
        attributes = AttributeSet()
        attributes.add(Attribute(name=ATTR_SUBSCRIPTION, value=package_id))
        policies: List[Policy] = []
        for region in regions:
            attributes.add(Attribute(name=ATTR_REGION, value=region))
            policies.append(
                Policy.of(
                    priority=50,
                    conditions=[
                        PolicyCondition(name=ATTR_REGION, value=region),
                        PolicyCondition(name=ATTR_SUBSCRIPTION, value=package_id),
                    ],
                    action=Decision.ACCEPT,
                    label=f"sub-{package_id}-{region}",
                )
            )
        self.add_channel(channel_id, attributes, policies, now, partition, **kwargs)

    def add_partition(self, name: str) -> ChannelManager:
        """Stand up a new Channel Listing Partition (CM farm) at runtime."""
        if f"cm://{name}" in self._farms:
            raise ReproError(f"partition exists: {name}")
        self._new_farm("cm", name, f"cm-{name}")
        if self.stores:
            self._open_farm_store(self.farm(f"cm://{name}"))
        return self.channel_managers[name]

    def promote_channel(self, channel_id: str, partition: str, now: float) -> None:
        """Move a (popular) channel onto its own partition (Section V).

        Creates the partition if needed, re-homes the channel, and
        re-points the overlay's ticket-verification key at the new
        farm.  In-flight Channel Tickets from the old farm remain
        valid at existing peers until expiry; *new* joins require a
        ticket from the new farm, which clients obtain transparently
        at their next switch/renewal (the utime bump prompts a Channel
        List refresh).
        """
        if partition not in self.channel_managers:
            self.add_partition(partition)
        manager = self.channel_managers[partition]
        self.policy_manager.move_channel_partition(
            channel_id, partition, f"cm://{partition}", now
        )
        if self.sharding is not None:
            # A promoted channel is pinned: directory overrides outrank
            # the ring and never move during resharding.
            self.sharding.channel_directory.pin(channel_id, partition)
        overlay = self.overlay(channel_id)
        overlay.source.cm_public_key = manager.public_key
        for peer in overlay.peers.values():
            peer.cm_public_key = manager.public_key

    def add_channel_bundle(
        self,
        bundle_package: str,
        channel_regions: Dict[str, Sequence[str]],
        now: float = 0.0,
        partition: Optional[str] = None,
    ) -> None:
        """Provision a subscription *bundle*: one package, many channels.

        Section III: channels "may be made available to the users as
        part of channel bundles or individually, à la carte."  A bundle
        is simply the same Subscription package gating several
        channels; an à-la-carte channel uses its own package id via
        :meth:`add_subscription_channel`.
        """
        for channel_id, regions in channel_regions.items():
            self.add_subscription_channel(
                channel_id, regions=regions, package_id=bundle_package,
                now=now, partition=partition,
            )

    def overlay(self, channel_id: str) -> ChannelOverlay:
        """The overlay carrying a channel."""
        overlay = self.overlays.get(channel_id)
        if overlay is None:
            raise ReproError(f"no overlay for channel {channel_id!r}")
        return overlay

    def server(self, channel_id: str) -> ChannelServer:
        """The Channel Server feeding a channel."""
        server = self.servers.get(channel_id)
        if server is None:
            raise ReproError(f"no server for channel {channel_id!r}")
        return server

    def channel_manager_for(self, channel_id: str) -> ChannelManager:
        """The Channel Manager farm serving a channel's partition."""
        record = self.policy_manager.get_channel(channel_id)
        return self.channel_managers[record.partition]

    # ------------------------------------------------------------------
    # Causal tracing (see repro.trace)
    # ------------------------------------------------------------------

    def enable_tracing(self, tracer: Optional[Tracer] = None) -> Tracer:
        """Attach one shared tracer to every protocol component.

        Components created *after* this call (clients, peers, channels,
        replicas, recovered managers) pick the tracer up automatically.
        Returns the tracer so callers can pull reports from it.
        """
        if tracer is None:
            tracer = Tracer()
        self.tracer = tracer
        self._wire_all()
        self.metrics.register("trace", tracer)
        return tracer

    # ------------------------------------------------------------------
    # Byzantine detection and containment (see repro.p2p.scorecard)
    # ------------------------------------------------------------------

    def enable_misbehavior_detection(
        self,
        half_life: float = 120.0,
        quarantine_threshold: float = 3.0,
        join_rate_limit: Optional[Tuple[int, float]] = None,
    ) -> "PeerScorecard":
        """Turn on the Byzantine detection plane.

        One shared :class:`~repro.p2p.scorecard.PeerScorecard` is
        attached to every overlay and peer (existing and future), its
        counters are registered as the ``adversary`` metrics subsystem,
        and -- when ``join_rate_limit=(limit, window)`` is given --
        every Channel Manager instance (existing and future) gains a
        per-address SWITCH rate limiter whose refusals feed the
        scorecard.  Returns the scorecard.
        """
        if self.scorecard is not None:
            return self.scorecard
        self.misbehavior = MisbehaviorCounters()
        self.scorecard = PeerScorecard(
            half_life=half_life,
            quarantine_threshold=quarantine_threshold,
            counters=self.misbehavior,
            tracer=self.tracer,
        )
        self._join_rate_limit = join_rate_limit
        self.metrics.register("adversary", self.misbehavior)
        self._wire_all()
        return self.scorecard

    def _on_rate_limited(self, observed_addr: str, now: float) -> None:
        if self.scorecard is not None:
            self.scorecard.report_address(observed_addr, JOIN_FLOOD, now=now)

    def contain_misbehavior(self, now: float) -> Dict[str, List[str]]:
        """One containment sweep: audit depths, evict quarantined peers.

        Returns ``channel_id -> evicted peer ids``.  The chaos rigs
        call this once per key epoch.
        """
        evicted: Dict[str, List[str]] = {}
        if self.scorecard is None:
            return evicted
        for channel_id, overlay in self.overlays.items():
            overlay.audit_depths(now)
            gone = overlay.contain(now)
            if gone:
                evicted[channel_id] = gone
        return evicted

    # ------------------------------------------------------------------
    # Durability, crash recovery and replicas (see repro.store,
    # repro.sim.faults, repro.resilience)
    # ------------------------------------------------------------------

    def _make_store(self, name: str):
        from repro.store import DurableStore, FileBackend, MemoryBackend

        if self._store_root is None:
            backend = MemoryBackend()
        else:
            backend = FileBackend(os.path.join(self._store_root, name))
        store = DurableStore(backend)
        self.stores[name] = store
        self.metrics.register(f"store.{name}", store.stats)
        return store

    def _open_farm_store(self, farm: Farm) -> None:
        """Give a farm its durable store -- the one non-idempotent facility.

        ``attach_store`` snapshots the live state into the store, so a
        store that already ``has_state()`` (a previous process ran this
        farm) means *recover* the primary from it, never attach.
        """
        farm.store = store = self._make_store(f"{farm.kind}-{farm.name}")
        if not store.has_state():
            for manager in self._instances(farm):
                manager.attach_store(store, snapshot_every=self._store_snapshot_every)
        elif farm.replicas:
            # Fresh replicas are no survivors of the previous process:
            # the recovered primary must not adopt their empty state.
            raise ReproError(f"{farm.address}: enable durability before adding replicas")
        else:
            self._crash(farm)
            self._recover(farm)

    def _attach_viewing_stores(self) -> None:
        """Journal each viewing partition once durability *and* sharding
        are on -- whichever comes second, and every later shard, lands here."""
        if self.sharding is None or not self.stores:
            return
        for name, partition in self.sharding.viewing.partitions().items():
            if f"viewing-{name}" not in self.stores:
                partition.attach_store(self._make_store(f"viewing-{name}"))

    def enable_durability(
        self, root: Optional[str] = None, snapshot_every: Optional[int] = None
    ) -> Dict[str, object]:
        """Attach a durable store to every stateful manager.

        ``root=None`` uses in-memory backends (simulation-grade
        durability: state survives a *process object* crash, which is
        what the fault injector models); a directory path uses
        :class:`~repro.store.FileBackend` subdirectories per manager.
        ``snapshot_every`` bounds WAL growth by auto-compacting after
        that many records.

        If ``root`` already holds state from a previous process, each
        manager is *recovered* from its store instead of snapshotting
        the fresh in-memory state over it -- pointing a restarted
        deployment at its old root never destroys data.  Build the
        deployment with the same ``seed`` so key management re-derives
        the farm credentials the persisted tickets expect, and add
        replicas after this call.
        """
        self._store_root = root
        self._store_snapshot_every = snapshot_every

        self._cpm_farm.store = cpm_store = self._make_store("cpm")
        if cpm_store.has_state():
            self._recover_policy_manager()
        else:
            self.policy_manager.attach_store(cpm_store, snapshot_every=snapshot_every)
        for farm in self._farms.values():
            self._open_farm_store(farm)
        self._attach_viewing_stores()
        return self.stores

    def _recover_policy_manager(self) -> None:
        """Rebuild the Channel Policy Manager from a pre-existing store.

        The recovered instance takes over the old one's directory
        binding; re-subscribing the live User/Channel Managers pushes
        the recovered Channel (Attribute) List to them immediately.
        """
        farm = self._cpm_farm
        farm.generation += 1
        manager = ChannelPolicyManager.recover(
            farm.store, snapshot_every=self._store_snapshot_every
        )
        manager.enable_client_access(
            farm_secret=farm.farm_secret,
            drbg=farm.derived_drbg(f"recovery-{farm.generation}"),
            user_manager_keys=self._user_manager_keys(),
        )
        self.policy_manager = manager
        self.directory.register("cpm://main", manager)
        for um in self.live_managers("um"):
            manager.add_attribute_list_listener(um.receive_channel_attribute_list)
        for cm in self.live_managers("cm"):
            manager.add_channel_list_listener(cm.receive_channel_list)
        self._epg = None

    def crash_channel_manager(self, partition: str) -> ChannelManager:
        """Kill a Channel Manager farm's primary process.

        The manager object is unhooked from every feed and the
        directory -- only its durable store, the farm record held by
        the deployment's key management, and any replicas survive.
        Returns the dead instance (tests compare its state against the
        recovered one).
        """
        return self._crash(self.farm(f"cm://{partition}"))

    def recover_channel_manager(self, partition: str) -> ChannelManager:
        """Rebuild a crashed Channel Manager from its durable store."""
        return self._recover(self.farm(f"cm://{partition}"))

    def crash_user_manager(self, domain: str) -> UserManager:
        """Kill a User Manager farm's primary (see crash_channel_manager)."""
        return self._crash(self.farm(f"um://{domain}"))

    def recover_user_manager(self, domain: str) -> UserManager:
        """Rebuild a crashed User Manager from its durable store."""
        return self._recover(self.farm(f"um://{domain}"))

    def add_user_manager_replicas(self, domain: str, count: int) -> List[UserManager]:
        """Spawn ``count`` extra instances of a User Manager farm.

        Each replica holds the farm's credentials (same signing key and
        secret -- tickets verify against one public key regardless of
        which instance issued them), shares the primary's user database
        by reference, subscribes to the same CPM/Account feeds, and is
        published to the Redirection Manager as a failover target at
        ``um://<domain>!<n>``.
        """
        return self._add_replicas(self.farm(f"um://{domain}"), count)

    def add_channel_manager_replicas(
        self, partition: str, count: int
    ) -> List[ChannelManager]:
        """Spawn ``count`` extra instances of a Channel Manager farm.

        Replicas share the primary's viewing log *by reference* --
        Section V's farm contract, which the one-viewing-location rule
        needs to survive failover (see :meth:`_stand_up`).  Published
        in the directory at ``cm://<partition>!<n>``.
        """
        return self._add_replicas(self.farm(f"cm://{partition}"), count)

    # ------------------------------------------------------------------
    # Sharded manager tier (see repro.sharding)
    # ------------------------------------------------------------------

    def enable_sharding(self, vnodes: Optional[int] = None):
        """Install the sharded manager tier over the running farms.

        Builds consistent-hash rings over the existing Authentication
        Domains and Channel Listing Partitions, partitions the viewing
        log by user, and installs shard-aware placement into the
        Redirection Manager and every Channel Manager instance.
        Idempotent; returns the :class:`~repro.sharding.ShardingRuntime`.
        Works before or after :meth:`enable_durability`.
        """
        if self.sharding is not None:
            return self.sharding
        from repro.sharding.ring import DEFAULT_VNODES
        from repro.sharding.runtime import ShardingRuntime

        runtime = ShardingRuntime(
            self, vnodes=DEFAULT_VNODES if vnodes is None else vnodes
        )
        self.sharding = runtime
        self.metrics.register("sharding", runtime.counters)
        self._wire_all()
        self._attach_viewing_stores()
        return runtime

    def stand_up_user_manager_shard(self):
        """Stand one new Authentication Domain up cold; plan its reshard-in.

        The new domain is a fresh farm with a full account sync and a
        disjoint UserIN high band ((index+1) << 32, stride 1): the
        legacy domains interleave ids with the *original* domain count
        as stride, so a late-added shard must not re-use that scheme or
        its allocations would collide with theirs.  Returns the
        :class:`~repro.sharding.reshard.ReshardPlan` for the caller to
        ``execute`` (``plan.target`` is the domain name).
        """
        runtime = self.enable_sharding()
        index = self._next_domain_index
        self._next_domain_index += 1
        manager = self._new_user_farm(index, ((index + 1) << 32, 1))
        # Every domain replicates the full account base (Section V);
        # listeners only cover future pushes, so backfill the rest.
        for account in self.accounts.all_accounts():
            manager.sync_account(account)
        # Downstream verifiers must accept the new domain's tickets.
        self.policy_manager.add_user_manager_key(manager.public_key)
        for cm in self.live_managers("cm"):
            cm.add_user_manager_key(manager.public_key)
        if self.stores:
            self._open_farm_store(self.farm(f"um://{manager.domain}"))
        runtime.attach_user_shard(manager.domain)
        self._attach_viewing_stores()
        return runtime.coordinator.plan_add_user_shard(manager.domain)

    def add_user_manager_shards(self, count: int = 1) -> List[str]:
        """Grow the UM tier by ``count`` Authentication Domain shards.

        Each new domain is stood up cold
        (:meth:`stand_up_user_manager_shard`), then *live-resharded*
        in: the coordinator freezes the moving key range, migrates
        UserDB rows and viewing histories, and cuts the directory over
        -- roughly 1/N of users move per added shard, everyone else is
        untouched.  Returns the new domain names.
        """
        runtime = self.enable_sharding()
        added: List[str] = []
        for _ in range(count):
            plan = self.stand_up_user_manager_shard()
            runtime.coordinator.execute(plan)
            added.append(plan.target)
        return added

    def add_channel_manager_shards(self, count: int = 1) -> List[str]:
        """Grow the CM tier by ``count`` Channel Listing Partition shards.

        Each new partition joins the channel ring through the live
        resharding path: ~1/N of channels re-home onto it (policy
        records and overlay keys flip; *no* viewing state moves, since
        the log is partitioned by user).  Returns the new partition
        names.
        """
        runtime = self.enable_sharding()
        added: List[str] = []
        for _ in range(count):
            name = None
            while name is None or f"cm://{name}" in self._farms:
                name = f"partition-{self._next_shard_partition_index}"
                self._next_shard_partition_index += 1
            self.add_partition(name)
            plan = runtime.coordinator.plan_add_channel_shard(name)
            runtime.coordinator.execute(plan)
            added.append(name)
        return added

    # ------------------------------------------------------------------
    # Clients and peers
    # ------------------------------------------------------------------

    def create_client(
        self,
        email: str,
        password: str,
        region: str = "CH",
        net_addr: Optional[str] = None,
        register: bool = True,
        version: Optional[str] = None,
        image: Optional[bytes] = None,
        key_bits: Optional[int] = None,
        keypair=None,
    ) -> Client:
        """Register (optionally) and build one client in a region.

        ``keypair`` injects a pre-generated client RSA key (see
        :class:`~repro.core.client.Client`); synthetic fleets share one
        to skip the per-client keygen cost.
        """
        if register and not self.accounts.exists(email):
            self.accounts.register(email, password)
        self._client_counter += 1
        client = Client(
            email=email,
            password=password,
            version=version or self.client_version,
            image=image if image is not None else self.client_image,
            net_addr=net_addr or self.geo.random_address(region, self.rng),
            redirection=self.redirection,
            directory=self.directory,
            drbg=self._drbg.fork(f"client-{self._client_counter}-{email}".encode()),
            key_bits=key_bits or self.key_bits,
            keypair=keypair,
        )
        self._wire_client(client)
        return client

    def make_peer(self, client: Client, channel_id: str, capacity: int = 4) -> Peer:
        """Wrap a ticketed client as an overlay peer."""
        return self._build_peer(client, channel_id, capacity, Peer)

    def make_adversarial_peer(
        self,
        client: Client,
        channel_id: str,
        config: "AdversaryConfig",
        capacity: int = 4,
    ) -> "AdversarialPeer":
        """Wrap a ticketed client as a *Byzantine* overlay peer.

        The adversary is a fully authorized viewer -- it passes every
        ticket check -- whose misbehavior schedule is ``config``.
        """
        from repro.p2p.adversary import AdversarialPeer

        return self._build_peer(
            client, channel_id, capacity, AdversarialPeer, config=config
        )

    def _build_peer(self, client, channel_id, capacity, peer_cls, **extra):
        if client.channel_ticket is None or client.channel_ticket.channel_id != channel_id:
            raise ReproError("client must hold a channel ticket for this channel")
        record = self.policy_manager.get_channel(channel_id)
        geo_record = self.geo.lookup(client.net_addr)
        peer = peer_cls(
            peer_id=f"peer-{client.channel_ticket.user_id}",
            client=client,
            channel_id=channel_id,
            cm_public_key=self.channel_managers[record.partition].public_key,
            drbg=self._drbg.fork(f"peer-{client.channel_ticket.user_id}".encode()),
            capacity=capacity,
            region=geo_record.region if geo_record is not None else "?",
            asn=geo_record.asn if geo_record is not None else 0,
            **extra,
        )
        self._wire_peer(peer)
        return peer

    def watch(self, client: Client, channel_id: str, now: float, capacity: int = 4) -> Peer:
        """Convenience: switch + join + register in one call.

        Returns the client's overlay peer, fully connected.
        """
        response = client.switch_channel(channel_id, now)
        peer = self.make_peer(client, channel_id, capacity=capacity)
        self.overlay(channel_id).join(peer, response.peers, now)
        return peer
