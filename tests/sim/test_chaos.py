"""The chaos scenario suite's own tests.

Each scenario must pass its invariants at a reduced fleet size (the
CI smoke job runs the acceptance scenario the same way), and the
result object must survive a JSON round-trip for ``repro chaos
report``.
"""

from dataclasses import asdict

import pytest

from repro.sim.chaos import (
    SCENARIOS,
    ChaosConfig,
    ScenarioResult,
    load_result,
    render_result,
    run_scenario,
)

SMALL = ChaosConfig(clients=4)


def test_registry_lists_every_scenario():
    assert list(SCENARIOS) == [
        "manager_crash_mid_storm",
        "rolling_restarts",
        "partition_cm_farm",
        "slow_station_brownout",
        "replica_flap",
        "shard_killed_mid_resharding",
        "polluting_parents",
        "key_withholding_parents",
        "depth_liars",
        "join_flood",
        "replay_storm",
    ]


def test_unknown_scenario_is_a_clear_error():
    with pytest.raises(KeyError, match="unknown scenario"):
        run_scenario("nope")


@pytest.mark.parametrize("name", list(SCENARIOS))
def test_scenario_passes_invariants(name, monkeypatch):
    # The adversarial scenarios honor the same fleet-size knob CI uses;
    # the infrastructure scenarios ignore it.
    monkeypatch.setenv("CHAOS_ADV_VIEWERS", "8")
    result = run_scenario(name, SMALL)
    assert result.passed, result.violations
    assert all(o.converged for o in result.outcomes)
    assert result.fault_events


def test_manager_crash_mid_storm_acceptance_details():
    result = run_scenario("manager_crash_mid_storm", SMALL)
    assert result.passed, result.violations
    # Every client survives the crash with zero playback interruption,
    # rides it out in degraded mode, and fails over to the replica.
    for outcome in result.outcomes:
        assert outcome.interruptions == 0
        assert outcome.degraded_seconds > 0.0
        assert outcome.failovers >= 1
    # The failovers are visible as annotated resilience spans.
    assert result.resilience_spans.get("FAILOVER", 0) >= len(result.outcomes)
    assert result.resilience_spans.get("RETRY", 0) > 0
    assert result.counters["breaker_opens"] > 0
    # After cm0 recovers, the next renewal's half-open probe re-closes.
    assert result.counters["breaker_closes"] > 0


def test_partition_heals_without_failover():
    result = run_scenario("partition_cm_farm", SMALL)
    assert result.passed, result.violations
    # Both replicas were unreachable: retrying in place was the only
    # option, and two failures stay below the breaker threshold.
    assert all(o.failovers == 0 for o in result.outcomes)
    assert result.counters["breaker_opens"] == 0
    assert result.counters["retries"] > 0


def test_shard_killed_mid_resharding_acceptance_details():
    result = run_scenario("shard_killed_mid_resharding", SMALL)
    assert result.passed, result.violations
    # The migration target died mid-copy: the attempt rolled back
    # (directory untouched), then resumed to completion after recovery.
    assert result.counters["migrations_rolled_back"] >= 1
    assert result.counters["migrations_resumed"] >= 1
    assert result.counters["migrations_completed"] >= 1
    # Renewals that hit the frozen range were deferred, not dropped,
    # and replayed once the freeze lifted.
    assert result.counters["frozen_deferrals"] > 0
    assert result.counters["replayed_operations"] > 0
    assert result.counters["keys_moved"] > 0
    # The kill and the recovery are both visible as fault events.
    kinds = {kind for _, kind, _ in result.fault_events}
    assert {"crash", "recover"} <= kinds


def test_result_json_roundtrip(tmp_path):
    result = run_scenario("replica_flap", SMALL)
    path = tmp_path / "run.json"
    result.save(str(path))
    loaded = load_result(str(path))
    assert asdict(loaded) == asdict(result)
    assert isinstance(loaded, ScenarioResult)
    rendered = render_result(loaded)
    assert "replica_flap" in rendered
    assert "PASS" in rendered
