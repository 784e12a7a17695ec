"""Counters for the sharded manager tier (see :mod:`repro.sharding`).

One block per deployment (registered as ``sharding`` in
``Deployment.metrics``): the directories, the partitioned viewing log,
and the reshard coordinator all tally into the same instance, so one
snapshot answers "what did placement and migration cost".
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.metrics.counters import CounterBlock


@dataclass
class ShardingCounters(CounterBlock):
    """Tallies for placement lookups and live resharding."""

    #: Placement lookups answered from the hash ring.
    ring_lookups: int = 0
    #: Placement lookups answered by a pinned directory override.
    pinned_lookups: int = 0
    #: Lookups refused because the key's range was frozen mid-reshard.
    frozen_deferrals: int = 0
    #: Viewing-log operations routed to a partition other than the
    #: Channel Manager that received the request -- the price of
    #: partitioning the log by user instead of by channel.
    cross_shard_lookups: int = 0

    #: Reshard executions started / completed / rolled back / resumed.
    migrations_started: int = 0
    migrations_completed: int = 0
    migrations_rolled_back: int = 0
    migrations_resumed: int = 0
    #: Keys whose owner changed at a completed cutover.
    keys_moved: int = 0
    #: Bytes of WAL/snapshot state copied between shard stores.
    migration_bytes: int = 0
    #: Deferred operations replayed after cutover (in-flight renewals).
    replayed_operations: int = 0
