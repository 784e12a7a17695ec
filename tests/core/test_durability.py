"""Durability threading through the three stateful managers.

Each manager journals its mutations to a DurableStore and can be
rebuilt, byte-identical where it matters, by ``recover``.  The
deployment-level crash/recover workflow (credential hand-back, listener
re-wiring) is exercised through ``Deployment`` itself.
"""

import pytest

from repro.core.attributes import ATTR_REGION, Attribute, AttributeSet
from repro.core.challenge import answer_challenge
from repro.core.policy import Decision, Policy, PolicyCondition
from repro.core.policy_manager import ChannelPolicyManager
from repro.core.protocol import Switch1Request, Switch2Request
from repro.deployment import Deployment
from repro.errors import ReproError
from repro.sim.faults import single_location_violations, utime_regressions
from repro.store import DurableStore, MemoryBackend


@pytest.fixture
def deployment():
    d = Deployment(seed=11, n_domains=2)
    d.enable_durability()
    d.add_free_channel("news", regions=["CH", "DE"])
    d.add_free_channel("sport", regions=["CH"])
    return d


def _client_with_traffic(deployment):
    client = deployment.create_client("alice@example.org", "pw", region="CH")
    client.login(now=0.0)
    client.switch_channel("news", now=1.0)
    client.switch_channel("sport", now=5.0)
    return client


class TestChannelManagerDurability:
    def test_recovered_log_is_byte_identical(self, deployment):
        _client_with_traffic(deployment)
        before = deployment.channel_managers["default"]
        pre_log = before.viewing_log_bytes()
        pre_counters = (
            before.tickets_issued, before.renewals_issued, before.rejections,
        )

        deployment.crash_channel_manager("default")
        recovered = deployment.recover_channel_manager("default")

        assert recovered.viewing_log_bytes() == pre_log
        assert (
            recovered.tickets_issued,
            recovered.renewals_issued,
            recovered.rejections,
        ) == pre_counters
        assert recovered.viewing_log() == before.viewing_log()

    def test_rejection_counter_recovers(self, deployment):
        client = _client_with_traffic(deployment)
        bob = deployment.create_client("bob@example.org", "pw", region="FR")
        bob.login(now=0.0)
        with pytest.raises(ReproError):
            bob.switch_channel("sport", now=2.0)  # CH-only channel
        before = deployment.channel_managers["default"].rejections
        assert before >= 1

        deployment.crash_channel_manager("default")
        recovered = deployment.recover_channel_manager("default")
        assert recovered.rejections == before

    def test_switch_in_flight_across_crash(self, deployment):
        """SWITCH1 answered by the old process, SWITCH2 by the recovered
        one: the challenge token is farm-secret MAC'd, not in-memory
        state, so the round completes without re-login."""
        client = _client_with_traffic(deployment)
        old = deployment.channel_managers["default"]
        response1 = old.switch1(
            Switch1Request(user_ticket=client.user_ticket, channel_id="news"),
            now=10.0,
        )

        deployment.crash_channel_manager("default")
        recovered = deployment.recover_channel_manager("default")

        response2 = recovered.switch2(
            Switch2Request(
                user_ticket=client.user_ticket,
                token=response1.token,
                signature=answer_challenge(response1.token, client._key),
                channel_id="news",
            ),
            observed_addr=client.net_addr,
            now=10.5,
        )
        assert response2.ticket.channel_id == "news"
        assert single_location_violations(recovered.viewing_log()) == []

    def test_renewal_continues_without_relogin(self, deployment):
        client = _client_with_traffic(deployment)
        deployment.crash_channel_manager("default")
        recovered = deployment.recover_channel_manager("default")

        # The sport ticket (issued t=5, lifetime 900) becomes renewable
        # inside its 120 s window before expiry at t=905.
        response = client.renew_channel_ticket(now=800.0)
        assert response.ticket.channel_id == "sport"
        assert recovered.renewals_issued == 1
        assert single_location_violations(recovered.viewing_log()) == []

    def test_crash_unknown_partition_rejected(self, deployment):
        with pytest.raises(ReproError):
            deployment.crash_channel_manager("nope")

    def test_recover_without_store_rejected(self):
        d = Deployment(seed=3)  # durability never enabled
        d.channel_managers.pop("default")
        with pytest.raises(ReproError):
            d.recover_channel_manager("default")


class TestUserManagerDurability:
    def test_recovery_preserves_users_and_counters(self, deployment):
        _client_with_traffic(deployment)
        # alice hashed into one of the two domains; exercise both.
        for domain in list(deployment.user_managers):
            before = deployment.user_managers[domain]
            count, logins = before.user_count(), before.logins_issued
            deployment.crash_user_manager(domain)
            recovered = deployment.recover_user_manager(domain)
            assert recovered.user_count() == count
            assert recovered.logins_issued == logins

    def test_login_works_after_recovery(self, deployment):
        client = _client_with_traffic(deployment)
        for domain in list(deployment.user_managers):
            deployment.crash_user_manager(domain)
            deployment.recover_user_manager(domain)
        ticket = client.login(now=20.0)
        assert ticket.user_id == client.user_ticket.user_id

    def test_user_id_allocation_resumes_with_stride(self, deployment):
        a = deployment.create_client("a@example.org", "pw", region="CH")
        b = deployment.create_client("b@example.org", "pw", region="CH")
        a.login(now=0.0)
        b.login(now=0.0)
        ids_before = {a.user_ticket.user_id, b.user_ticket.user_id}

        for domain in list(deployment.user_managers):
            deployment.crash_user_manager(domain)
            deployment.recover_user_manager(domain)

        c = deployment.create_client("c@example.org", "pw", region="CH")
        c.login(now=1.0)
        # A fresh UserIN: never a reuse of a pre-crash allocation.
        assert c.user_ticket.user_id not in ids_before

    def test_accounts_registered_after_recovery_sync(self, deployment):
        for domain in list(deployment.user_managers):
            deployment.crash_user_manager(domain)
            deployment.recover_user_manager(domain)
        late = deployment.create_client("late@example.org", "pw", region="DE")
        ticket = late.login(now=2.0)
        assert ticket.user_id > 0


class TestPolicyManagerDurability:
    def _populated(self, store):
        cpm = ChannelPolicyManager()
        cpm.attach_store(store)
        attrs = AttributeSet()
        attrs.add(Attribute(name=ATTR_REGION, value="CH"))
        cpm.add_channel("news", 10.0, attributes=attrs, policies=[
            Policy.of(priority=50,
                      conditions=[PolicyCondition(name=ATTR_REGION, value="CH")],
                      action=Decision.ACCEPT, label="free-CH"),
        ])
        cpm.set_channel_manager("news", "cm://default", 11.0)
        cpm.set_channel_attribute(
            "news", Attribute(name=ATTR_REGION, value="DE"), 20.0
        )
        cpm.schedule_blackout("news", start=100.0, end=200.0, now=30.0)
        cpm.add_channel("late", 40.0)
        cpm.delete_channel("late", 41.0)
        return cpm

    def test_recovery_reproduces_utimes_exactly(self):
        store = DurableStore(MemoryBackend())
        before = self._populated(store)
        recovered = ChannelPolicyManager.recover(store)

        assert utime_regressions(
            before.channel_attribute_list(), recovered.channel_attribute_list()
        ) == []
        # Not merely no-regression: bit-exact equality both ways.
        assert (
            before.channel_attribute_list().utime_map()
            == recovered.channel_attribute_list().utime_map()
        )

    def test_recovery_reproduces_channel_records(self):
        store = DurableStore(MemoryBackend())
        before = self._populated(store)
        recovered = ChannelPolicyManager.recover(store)
        assert sorted(before.channel_list()) == sorted(recovered.channel_list())
        for channel_id, record in before.channel_list().items():
            assert recovered.get_channel(channel_id).to_bytes() == record.to_bytes()

    def test_mutations_continue_after_recovery(self):
        store = DurableStore(MemoryBackend())
        self._populated(store)
        recovered = ChannelPolicyManager.recover(store)
        recovered.set_channel_attribute(
            "news", Attribute(name=ATTR_REGION, value="AT"), 50.0
        )
        twice = ChannelPolicyManager.recover(store)
        assert twice.get_channel("news").to_bytes() == \
            recovered.get_channel("news").to_bytes()

    def test_replay_cannot_journal(self):
        # Replay runs the public mutators, each of which journals -- but
        # the store is adopted only once replay has ended, so nothing
        # is appended a second time (no ``_replaying`` flag needed).
        store = DurableStore(MemoryBackend())
        self._populated(store)
        replayed = store.record_count()
        recovered = ChannelPolicyManager.recover(store)
        assert store.record_count() == replayed > 0
        recovered.add_channel("post", 60.0)
        assert store.record_count() == replayed + 1


class TestAutoSnapshot:
    def test_snapshot_every_bounds_wal(self):
        store = DurableStore(MemoryBackend())
        cpm = ChannelPolicyManager()
        cpm.attach_store(store, snapshot_every=5)
        for i in range(23):
            cpm.add_channel(f"ch{i}", float(i))
        assert store.record_count() <= 5
        recovered = ChannelPolicyManager.recover(store, snapshot_every=5)
        assert sorted(recovered.channel_list()) == sorted(cpm.channel_list())


class TestViewingLogDefensiveCopy:
    def test_mutating_the_returned_list_does_not_leak(self, deployment):
        _client_with_traffic(deployment)
        manager = deployment.channel_managers["default"]
        log = manager.viewing_log()
        baseline = manager.viewing_log_bytes()
        log.clear()
        log.extend([])
        assert manager.viewing_log() != []
        assert manager.viewing_log_bytes() == baseline

    def test_entries_are_immutable(self, deployment):
        _client_with_traffic(deployment)
        manager = deployment.channel_managers["default"]
        entry = manager.viewing_log()[0]
        with pytest.raises(AttributeError):
            entry.net_addr = "10.0.0.1"


class TestColdStartRecovery:
    """A new *process* pointing ``enable_durability`` at an existing
    root must recover the farms from disk, never overwrite them."""

    def _first_process(self, root):
        d = Deployment(seed=31, n_domains=2)
        d.enable_durability(root=root)
        d.add_free_channel("news", regions=["CH", "DE"])
        d.add_free_channel("sport", regions=["CH"])
        client = d.create_client("alice@example.org", "pw", region="CH")
        client.login(now=0.0)
        client.switch_channel("news", now=1.0)
        client.switch_channel("sport", now=5.0)
        return d, client

    def test_restart_recovers_instead_of_clobbering(self, tmp_path):
        root = str(tmp_path / "state")
        first, _ = self._first_process(root)
        pre_log = first.channel_managers["default"].viewing_log_bytes()
        pre_channels = sorted(first.policy_manager.channel_list())

        # "Process B": fresh deployment, same seed, same root.
        second = Deployment(seed=31, n_domains=2)
        second.enable_durability(root=root)

        cm = second.channel_managers["default"]
        assert cm.viewing_log_bytes() == pre_log
        assert sorted(second.policy_manager.channel_list()) == pre_channels
        assert second.stores["cm-default"].stats.records_replayed > 0

    def test_restart_keeps_user_identity_and_serves(self, tmp_path):
        root = str(tmp_path / "state")
        first, client = self._first_process(root)
        original_uid = client.user_ticket.user_id

        second = Deployment(seed=31, n_domains=2)
        second.enable_durability(root=root)

        # Same email re-registered after restart keeps its UserIN (the
        # UserDB row came back from the store), and the recovered farms
        # serve login + switch end-to-end without re-provisioning.
        again = second.create_client("alice@example.org", "pw", region="CH")
        ticket = again.login(now=100.0)
        assert ticket.user_id == original_uid
        response = again.switch_channel("news", now=101.0)
        assert response.ticket.channel_id == "news"

        # A brand-new user gets a fresh UserIN, not a reused one.
        novel = second.create_client("bob@example.org", "pw", region="CH")
        assert novel.login(now=102.0).user_id != original_uid

    def test_fresh_root_still_attaches_clean(self, tmp_path):
        root = str(tmp_path / "fresh")
        d = Deployment(seed=31, n_domains=2)
        d.enable_durability(root=root)
        d.add_free_channel("news", regions=["CH"])
        assert d.stores["cpm"].record_count() > 0
        for store in d.stores.values():
            assert store.verify().healthy

    def test_add_partition_recovers_existing_store(self, tmp_path):
        root = str(tmp_path / "state")
        first = Deployment(seed=31)
        first.enable_durability(root=root)
        first.add_partition("vip")
        first.add_free_channel("boxing", regions=["CH"], partition="vip")
        client = first.create_client("eve@example.org", "pw", region="CH")
        client.login(now=0.0)
        client.switch_channel("boxing", now=1.0)
        pre_log = first.channel_managers["vip"].viewing_log_bytes()
        assert pre_log

        # Replay the same program in a new process.
        second = Deployment(seed=31)
        second.enable_durability(root=root)
        recovered = second.add_partition("vip")
        assert recovered.viewing_log_bytes() == pre_log
