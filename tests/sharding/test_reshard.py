"""Live resharding: migration round-trips, rollback, and invariants.

The contract under test: after ``add_user_manager_shards`` /
``add_channel_manager_shards`` the directory never names a shard that
does not hold the key's state, UserINs survive the move (viewing-log
continuity), the one-location rule still holds, and a failed migration
rolls back to a directory identical to the one it started from.
"""

import pytest

from repro.deployment import Deployment
from repro.sharding import directory_state_violations
from repro.sim.faults import single_location_violations


def build(n_domains=2, durable=False, users=8):
    deployment = Deployment(seed=23, n_domains=n_domains, partitions=("default",))
    if durable:
        deployment.enable_durability()
    deployment.add_free_channel("ch-news", regions=["CH"])
    deployment.add_free_channel("ch-sport", regions=["CH"])
    runtime = deployment.enable_sharding(vnodes=64)
    clients = []
    for i in range(users):
        client = deployment.create_client(f"v{i}@example.org", f"pw{i}", region="CH")
        client.login(0.0)
        client.switch_channel("ch-news", float(i))
        clients.append(client)
    return deployment, runtime, clients


class TestUserShardGrowth:
    def test_round_trip_preserves_state_and_invariants(self):
        deployment, runtime, clients = build()
        # Every UM replicates every account under its own per-domain
        # id; the id that must survive the move is the owning shard's.
        ids_before = {
            c.email: deployment.user_managers[
                runtime.user_directory.shard_for(c.email)
            ].user_by_email(c.email).user_id
            for c in clients
        }
        added = deployment.add_user_manager_shards(1)
        assert added == ["domain-2"]
        assert "domain-2" in runtime.user_directory.ring.nodes()

        assert directory_state_violations(deployment, runtime) == []
        assert runtime.viewing.misplaced_users() == []
        assert runtime.user_directory.frozen_keys() == set()
        assert runtime.viewing.frozen_users() == set()
        assert single_location_violations(runtime.viewing.combined_log()) == []
        assert runtime.counters.migrations_completed == 1

        # UserINs travel with the records: a migrated email keeps the
        # id its viewing history is keyed by.
        moved = [
            c.email
            for c in clients
            if runtime.user_directory.shard_for(c.email) == "domain-2"
        ]
        target = deployment.user_managers["domain-2"]
        for email in moved:
            assert target.user_by_email(email).user_id == ids_before[email]

    def test_renewal_continuity_across_migration(self):
        deployment, runtime, clients = build()
        deployment.add_user_manager_shards(1)
        for client in clients:
            response = client.renew_channel_ticket(800.0)
            assert response.ticket.channel_id == "ch-news"
        assert single_location_violations(runtime.viewing.combined_log()) == []

    def test_durable_migration_journals_state(self):
        deployment, runtime, clients = build(durable=True)
        deployment.add_user_manager_shards(1)
        assert directory_state_violations(deployment, runtime) == []
        # The new shard's viewing partition is store-backed like the rest.
        assert runtime.counters.migration_bytes > 0

    def test_new_shard_ids_disjoint_from_legacy_bands(self):
        deployment, runtime, _ = build()
        deployment.add_user_manager_shards(1)
        fresh = deployment.create_client("late@example.org", "pw", region="CH")
        fresh.login(0.0)
        legacy_ids = {
            record.user_id
            for manager in deployment.user_managers.values()
            for record in [manager.user_by_email("late@example.org")]
            if record is not None
        }
        assert len(legacy_ids) == len(deployment.user_managers)  # all distinct


class TestRollbackAndResume:
    def test_failpoint_rolls_back_then_resume_completes(self):
        deployment, runtime, clients = build()
        coordinator = runtime.coordinator
        plan = deployment.stand_up_user_manager_shard()
        assert plan.target == "domain-2"
        assert plan.moved or plan.moved_user_ids, "seed must move something"

        boom = RuntimeError("target rack lost power")

        def failpoint(copied):
            if copied == 1:
                raise boom

        with pytest.raises(RuntimeError):
            coordinator.execute(plan, failpoint=failpoint)

        assert plan.state == "rolled_back"
        assert runtime.counters.migrations_rolled_back == 1
        # Directory unchanged: nothing routes to the half-filled target.
        assert "domain-2" not in runtime.user_directory.ring.nodes()
        assert runtime.user_directory.frozen_keys() == set()
        assert directory_state_violations(deployment, runtime) == []

        coordinator.resume(plan, now=10.0)
        assert plan.state == "complete"
        assert runtime.counters.migrations_resumed == 1
        assert "domain-2" in runtime.user_directory.ring.nodes()
        assert directory_state_violations(deployment, runtime) == []
        assert runtime.viewing.misplaced_users() == []

    def test_resume_requires_a_rolled_back_plan(self):
        deployment, runtime, _ = build()
        plan = runtime.coordinator.plan_add_user_shard("domain-2")
        with pytest.raises(Exception):
            runtime.coordinator.resume(plan)


class TestChannelShardGrowth:
    def test_channels_move_without_touching_viewing_state(self):
        deployment, runtime, clients = build()
        entries_before = len(runtime.viewing.combined_log())
        keys_before = runtime.counters.keys_moved

        added = deployment.add_channel_manager_shards(1)
        assert added == ["partition-0"]
        # Channel placement moved; user viewing state did not.
        assert len(runtime.viewing.combined_log()) == entries_before
        assert runtime.viewing.misplaced_users() == []

        moved = [
            cid
            for cid in ("ch-news", "ch-sport")
            if runtime.channel_directory.shard_for(cid) == "partition-0"
        ]
        for cid in moved:
            record = deployment.policy_manager.get_channel(cid)
            assert record.partition == "partition-0"
            assert deployment.channel_managers["partition-0"].serves_channel(cid)

    def test_fresh_client_switches_to_moved_channel(self):
        deployment, runtime, _ = build()
        deployment.add_channel_manager_shards(1)
        late = deployment.create_client("late@example.org", "pw", region="CH")
        late.login(0.0)
        for cid in ("ch-news", "ch-sport"):
            response = late.switch_channel(cid, 1.0)
            assert response.ticket.channel_id == cid
