"""ShardingRuntime: one deployment's sharded manager tier, assembled.

Construction (normally via ``Deployment.enable_sharding``) builds the
three placement structures over whatever farms the deployment already
runs, and installs them in the request path:

* a **user directory** (ring over Authentication Domains, salt
  ``b"user"``), installed into the Redirection Manager so LOGIN and
  SWITCH redirection become shard-aware;
* a **channel directory** (ring over Channel Listing Partitions, salt
  ``b"channel"``), consulted by ``Deployment.add_channel`` for
  placement of new channels;
* a **sharded viewing log** (its own ring over UserINs, salt
  ``b"viewing"``), which the deployment's ``_wire_manager`` installs
  into every Channel Manager instance -- primaries and replicas, now
  and later -- so renewal checks route to the partition owning the
  user, which is what keeps the one-location rule intact across many
  CM farms.

Distinct salts mean a shard name appearing on two rings (every
Authentication Domain also hosts a viewing partition) still gets
independent vnode positions on each.

Enabling sharding on a warm deployment is itself a migration-free
cutover: existing viewing history is seeded into the owning partitions
before the router is installed, and the (deterministic) rings simply
replace the legacy modulo placement -- users may map to different
domains than the modulo scheme chose, which is harmless because every
User Manager replicates the full UserDB (Section V's farms share
state; only user *ids* differ per domain, and those travel with the
directory, not the client).
"""

from __future__ import annotations

from typing import Dict

from repro.metrics.sharding import ShardingCounters
from repro.sharding.directory import ShardDirectory
from repro.sharding.ring import DEFAULT_VNODES, ConsistentHashRing
from repro.sharding.viewing import ShardedViewingLog


class ShardingRuntime:
    """The assembled sharding state for one :class:`~repro.deployment.Deployment`."""

    def __init__(self, deployment, vnodes: int = DEFAULT_VNODES) -> None:
        self.deployment = deployment
        self.vnodes = vnodes
        self.counters = ShardingCounters()

        user_ring = ConsistentHashRing(
            vnodes=vnodes, salt=b"user", nodes=sorted(deployment.user_managers)
        )
        self.user_directory = ShardDirectory(
            user_ring, kind="user", counters=self.counters
        )
        channel_ring = ConsistentHashRing(
            vnodes=vnodes, salt=b"channel", nodes=sorted(deployment.channel_managers)
        )
        self.channel_directory = ShardDirectory(
            channel_ring, kind="channel", counters=self.counters
        )

        self.viewing = ShardedViewingLog(vnodes=vnodes, counters=self.counters)
        for domain in sorted(deployment.user_managers):
            self.viewing.add_partition(domain)
        self._seed_viewing_history()

        # Install into the request path: redirection consults the user
        # directory (the deployment points each CM instance at the
        # viewing router through :meth:`install_router`).
        deployment.redirection.use_shard_directory(self.user_directory)

        # Lazy import: reshard imports runtime's siblings.
        from repro.sharding.reshard import ReshardCoordinator

        self.coordinator = ReshardCoordinator(deployment, self)

    # ------------------------------------------------------------------
    # Assembly helpers
    # ------------------------------------------------------------------

    def _seed_viewing_history(self) -> None:
        """Load pre-sharding CM logs into the owning partitions.

        Replicas share their primary's log by reference, so logs are
        deduplicated by object identity before seeding.
        """
        seen_logs: Dict[int, bool] = {}
        for manager in self.deployment.live_managers("cm"):
            backing = manager._log  # shared by reference across a farm
            if id(backing) in seen_logs:
                continue
            seen_logs[id(backing)] = True
            self.viewing.seed(manager.viewing_log())

    def attach_user_shard(self, domain: str) -> None:
        """Register a new domain's viewing partition, off-ring.

        Called when a migration target is stood up: the partition can
        absorb copied state, but owns no keys until the coordinator
        cuts the rings over.
        """
        if domain not in self.viewing.partitions():
            self.viewing.add_partition(domain, join_ring=False)

    def install_router(self, manager) -> None:
        """Point one CM instance (e.g. a fresh replica) at the router."""
        manager.set_viewing_router(self.viewing)

    # ------------------------------------------------------------------
    # Introspection (CLI ``repro shard status``)
    # ------------------------------------------------------------------

    def status(self) -> dict:
        viewing_load = {
            name: len(partition.entries())
            for name, partition in self.viewing.partitions().items()
        }
        return {
            "vnodes": self.vnodes,
            "user_directory": self.user_directory.dump(),
            "channel_directory": self.channel_directory.dump(),
            "viewing": {
                "partitions": sorted(self.viewing.partitions()),
                "ring": sorted(self.viewing.ring.nodes()),
                "entries": viewing_load,
                "frozen_users": sorted(self.viewing.frozen_users()),
                "misplaced_users": self.viewing.misplaced_users(),
            },
            "counters": self.counters.snapshot(),
        }
