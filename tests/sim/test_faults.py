"""Tests for crash/restart fault injection and the recovery invariants."""

import random

import pytest

from repro.core.attributes import Attribute, AttributeSet
from repro.core.channel_manager import ViewingLogEntry
from repro.errors import SimulationError
from repro.sim.engine import Simulator
from repro.sim.faults import (
    CrashRecord,
    FaultInjector,
    flap,
    single_location_violations,
    utime_regressions,
    viewing_log_divergence,
)
from repro.sim.network import LatencyModel, RegionRtt
from repro.sim.rpc import RpcService, VirtualNetwork
from repro.sim.station import ServiceStation


def make_network(rtt=0.1):
    sim = Simulator()
    latency = LatencyModel(
        random.Random(1),
        table={("client", "dc"): RegionRtt(base_rtt=rtt, sigma=0.0001, slow_path_prob=0.0)},
    )
    return sim, VirtualNetwork(sim, latency, random.Random(2))


def echo_service(address="svc://a"):
    service = RpcService(address=address, region="dc")
    service.register("echo", lambda payload, ctx: payload)
    return service


class TestCrash:
    def test_request_to_crashed_service_vanishes(self):
        sim, network = make_network()
        network.attach(echo_service())
        injector = FaultInjector(network)
        injector.crash_at(0.0, "svc://a")
        replies, timeouts = [], []
        sim.schedule_at(1.0, lambda s: network.call(
            "c", "client", "svc://a", "echo", "x",
            on_reply=replies.append, timeout=5.0,
            on_timeout=lambda: timeouts.append(s.now),
        ))
        sim.run()
        assert replies == []
        assert len(timeouts) == 1
        assert network.messages_dropped_down == 1

    def test_in_flight_request_dies_with_the_process(self):
        # Request sent at t=0 (delivery ~t=0.05); crash at t=0.01.
        sim, network = make_network()
        network.attach(echo_service())
        injector = FaultInjector(network)
        replies = []
        network.call("c", "client", "svc://a", "echo", "x", on_reply=replies.append)
        injector.crash_at(0.01, "svc://a")
        sim.run()
        assert replies == []
        assert network.messages_dropped_down == 1

    def test_computed_reply_dropped_durable_but_unacknowledged(self):
        # Crash lands after the handler ran but before the reply
        # arrives: the mutation happened, the caller never hears.
        sim, network = make_network()
        served = []
        service = RpcService(address="svc://a", region="dc")
        service.register("mutate", lambda payload, ctx: served.append(payload) or "ok")
        network.attach(service)
        injector = FaultInjector(network)
        injector.crash_at(0.07, "svc://a")  # between delivery (~0.05) and reply (~0.1)
        replies = []
        network.call("c", "client", "svc://a", "mutate", "x", on_reply=replies.append)
        sim.run()
        assert served == ["x"]       # durable: the handler DID run
        assert replies == []          # unacknowledged: reply lost

    def test_crash_unknown_address_raises(self):
        sim, network = make_network()
        FaultInjector(network).crash_at(0.0, "svc://ghost")
        with pytest.raises(SimulationError):
            sim.run()

    def test_crash_record_reports_downtime(self):
        record = CrashRecord(address="svc://a", crashed_at=2.0)
        assert record.downtime is None
        record.recovered_at = 5.5
        assert record.downtime == 3.5


class TestRecover:
    def test_recovery_must_follow_crash(self):
        sim, network = make_network()
        network.attach(echo_service())
        injector = FaultInjector(network)
        record = injector.crash_at(5.0, "svc://a")
        with pytest.raises(SimulationError):
            injector.recover_at(5.0, record, lambda: None)

    def test_replacement_serves_at_the_same_address(self):
        sim, network = make_network()
        network.attach(echo_service())
        injector = FaultInjector(network)

        def rebuild():
            network.attach(echo_service())
            return None

        record = injector.crash_and_recover("svc://a", 1.0, 2.0, rebuild)
        replies = []
        # During the outage: dropped.  After recovery: served.
        sim.schedule_at(1.5, lambda s: network.call(
            "c", "client", "svc://a", "echo", "early", on_reply=replies.append))
        sim.schedule_at(3.0, lambda s: network.call(
            "c", "client", "svc://a", "echo", "late", on_reply=replies.append))
        sim.run()
        assert replies == ["late"]
        assert record.recovered_at == 2.0
        assert record.downtime == 1.0

    def test_recovery_picks_up_store_stats(self):
        from repro.store import DurableStore, MemoryBackend

        sim, network = make_network()
        network.attach(echo_service())
        injector = FaultInjector(network)
        backend = MemoryBackend()
        DurableStore(backend).append(1, b"x")

        def rebuild():
            network.attach(echo_service())
            store = DurableStore(backend)
            store.load()
            return store

        record = injector.crash_and_recover("svc://a", 1.0, 2.0, rebuild)
        sim.run()
        assert record.records_replayed == 1
        assert record.recovery_seconds > 0

    def test_request_queued_before_crash_never_leaks_to_replacement(self):
        # The dead instance's queued request must not be served by the
        # replacement attached at the same address.
        sim, network = make_network(rtt=1.0)  # delivery at ~0.5
        first = echo_service()
        network.attach(first)
        injector = FaultInjector(network)
        replies = []
        network.call("c", "client", "svc://a", "echo", "pre-crash",
                     on_reply=replies.append)
        injector.crash_and_recover(
            "svc://a", 0.1, 0.2, lambda: network.attach(echo_service()))
        sim.run()
        assert replies == []
        assert first.requests_served == 0


class TestSoftFaults:
    def test_rows_are_logged_and_applied_in_place(self):
        sim, network = make_network()
        service = echo_service()
        network.attach(service)
        injector = FaultInjector(network)
        injector.schedule([(1.0, "down", "svc://a"), (3.0, "up", "svc://a")])
        replies = []
        for when in (2.0, 4.0):
            sim.schedule_at(when, lambda s, w=when: network.call(
                "c", "client", "svc://a", "echo", w, on_reply=replies.append))
        sim.run()
        assert replies == [4.0]  # dropped while down, served once up
        assert injector.events == [(1.0, "down", "svc://a"), (3.0, "up", "svc://a")]

    def test_partition_resolves_named_groups_into_the_log(self):
        sim, network = make_network()
        network.attach(echo_service())
        injector = FaultInjector(network)
        injector.schedule(
            [(1.0, "partition", "clients<->farm"), (5.0, "heal", "*")],
            groups={"clients": ["c"], "farm": ["svc://a"]},
        )
        replies = []
        for when in (2.0, 6.0):
            sim.schedule_at(when, lambda s, w=when: network.call(
                "c", "client", "svc://a", "echo", w, on_reply=replies.append))
        sim.run()
        assert replies == [6.0]
        assert injector.events[0] == (1.0, "partition", "['c']<->['svc://a']")

    def test_brownout_and_restore_round_trip_the_service_time(self):
        sim, network = make_network()
        station = ServiceStation(sim, 1, 0.005, random.Random(3), name="cm0")
        injector = FaultInjector(network)
        injector.schedule(
            [(1.0, "brownout", "cm0 x1000"), (2.0, "restore", "cm0")],
            stations={"cm0": station},
        )
        seen = []
        for when in (1.5, 2.5):
            sim.schedule_at(when, lambda s: seen.append(station.mean_service_time))
        sim.run()
        assert seen == [0.005 * 1000.0, 0.005 * 1000.0 / 1000.0]

    def test_bad_rows_are_refused(self):
        _, network = make_network()
        injector = FaultInjector(network)
        stations = {"cm0": object()}
        for rows in (
            [(1.0, "explode", "svc://a")],
            [(1.0, "restore", "cm0")],
            [(1.0, "brownout", "cm0 x0")],
        ):
            with pytest.raises(SimulationError):
                injector.schedule(rows, stations=stations)

    def test_flap_alternates_and_ends_up(self):
        assert flap("svc://a", start=0.0, stop=5.0, period=2.0) == [
            (0.0, "down", "svc://a"),
            (2.0, "up", "svc://a"),
            (4.0, "down", "svc://a"),
            (5.0, "up", "svc://a"),
        ]
        with pytest.raises(SimulationError):
            flap("svc://a", start=0.0, stop=5.0, period=0.0)


class TestSingleLocationInvariant:
    def entry(self, user=1, channel="ch", addr="1.1.1.1", at=0.0, renewal=False):
        return ViewingLogEntry(
            user_id=user, channel_id=channel, net_addr=addr,
            issued_at=at, renewal=renewal,
        )

    def test_clean_log_passes(self):
        log = [
            self.entry(at=0.0),
            self.entry(at=700.0, renewal=True),
            self.entry(user=2, addr="2.2.2.2", at=1.0),
        ]
        assert single_location_violations(log) == []

    def test_moving_then_renewing_old_location_flagged(self):
        log = [
            self.entry(addr="1.1.1.1", at=0.0),
            self.entry(addr="2.2.2.2", at=10.0),           # account moved
            self.entry(addr="1.1.1.1", at=700.0, renewal=True),  # old site renews!
        ]
        violations = single_location_violations(log)
        assert len(violations) == 1
        assert "1.1.1.1" in violations[0]

    def test_renewal_without_issuance_flagged(self):
        violations = single_location_violations(
            [self.entry(at=5.0, renewal=True)]
        )
        assert len(violations) == 1

    def test_per_channel_tracking(self):
        # Same user on two channels from two addresses is two distinct
        # locations only if concurrent on the SAME channel.
        log = [
            self.entry(channel="a", addr="1.1.1.1", at=0.0),
            self.entry(channel="b", addr="2.2.2.2", at=1.0),
            self.entry(channel="a", addr="1.1.1.1", at=700.0, renewal=True),
        ]
        assert single_location_violations(log) == []


class TestUtimeInvariant:
    def test_no_regression(self):
        before = AttributeSet()
        before.add(Attribute(name="Region", value="CH", utime=5.0))
        after = AttributeSet()
        after.add(Attribute(name="Region", value="CH", utime=5.0))
        after.add(Attribute(name="Region", value="DE", utime=9.0))
        assert utime_regressions(before, after) == []

    def test_regressed_utime_flagged(self):
        before = AttributeSet()
        before.add(Attribute(name="Region", value="CH", utime=5.0))
        after = AttributeSet()
        after.add(Attribute(name="Region", value="CH", utime=3.0))
        problems = utime_regressions(before, after)
        assert len(problems) == 1
        assert "regressed" in problems[0]

    def test_lost_attribute_flagged(self):
        before = AttributeSet()
        before.add(Attribute(name="Region", value="CH", utime=5.0))
        problems = utime_regressions(before, AttributeSet())
        assert len(problems) == 1
        assert "lost" in problems[0]


class TestDivergence:
    def entry(self, at):
        return ViewingLogEntry(
            user_id=1, channel_id="ch", net_addr="1.1.1.1",
            issued_at=at, renewal=False,
        )

    def test_identical_logs(self):
        log = [self.entry(0.0), self.entry(1.0)]
        assert viewing_log_divergence(log, list(log)) is None

    def test_longer_recovered_log_is_fine(self):
        pre = [self.entry(0.0)]
        assert viewing_log_divergence(pre, pre + [self.entry(9.0)]) is None

    def test_lost_entry_flagged(self):
        pre = [self.entry(0.0), self.entry(1.0)]
        assert "lost" in viewing_log_divergence(pre, pre[:1])

    def test_mutated_entry_flagged(self):
        pre = [self.entry(0.0)]
        assert "diverged" in viewing_log_divergence(pre, [self.entry(0.5)])
