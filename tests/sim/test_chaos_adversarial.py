"""Scenario-level tests for the adversarial chaos suite.

The per-component behavior (injection, scorecard, replay window, rate
limiter) is covered in ``tests/p2p/test_adversary.py``; here we assert
the *end-to-end* gates the suite exists for: with 20% adversarial
peers, detection fires, the adversaries are quarantined and evicted,
honest peers are never framed, no tampered packet ever decrypts, and
playback recovers.  Fleet size is reduced through the same
``CHAOS_ADV_VIEWERS`` knob the CI smoke job uses.
"""

import pytest

from repro.p2p.adversary import AdversaryConfig
from repro.sim.chaos import AdversarialRig
from repro.sim.chaos import (
    SCENARIOS,
    ChaosConfig,
    load_result,
    render_result,
    run_scenario,
)

SMALL = ChaosConfig(clients=4)


@pytest.fixture(autouse=True)
def small_fleet(monkeypatch):
    monkeypatch.setenv("CHAOS_ADV_VIEWERS", "8")


def test_adversarial_scenarios_registered():
    assert {
        "polluting_parents",
        "key_withholding_parents",
        "depth_liars",
        "join_flood",
        "replay_storm",
    } <= set(SCENARIOS)


class TestPollutingParents:
    def test_full_pipeline_visible(self):
        result = run_scenario("polluting_parents", SMALL)
        assert result.passed, result.violations
        counters = result.counters
        assert counters["adversary.pollution_detected"] > 0
        assert counters["adversary.peers_quarantined"] > 0
        assert counters["adversary.peers_evicted"] > 0
        assert counters["adversary.eviction_repairs"] > 0
        # detect -> quarantine -> evict all left trace spans.
        for span in ("ADVERSARY.detect", "ADVERSARY.quarantine", "ADVERSARY.evict"):
            assert result.resilience_spans.get(span, 0) > 0, span

    def test_result_survives_json_roundtrip(self, tmp_path):
        result = run_scenario("polluting_parents", SMALL)
        path = str(tmp_path / "adv.json")
        result.save(path)
        loaded = load_result(path)
        assert loaded.counters == result.counters
        assert loaded.resilience_spans == result.resilience_spans
        assert loaded.passed

    def test_render_shows_misbehavior_table(self):
        result = run_scenario("polluting_parents", SMALL)
        text = render_result(result)
        assert "misbehavior / containment" in text
        assert "pollution_detected" in text
        assert "quarantine" in text  # the event timeline


class TestJoinFlood:
    def test_flood_refused_without_collateral(self):
        result = run_scenario("join_flood", SMALL)
        assert result.passed, result.violations
        assert result.counters["adversary.joins_rate_limited"] > 0
        assert result.counters["flood.refused"] > 0
        # The late honest joiner got through (asserted inside the
        # scenario); a pass here means no collateral damage.


class TestHonestPeersNeverFramed:
    def test_rig_with_honest_fleet_detects_nothing(self):
        """An all-honest run of the same rig: zero detections, zero
        quarantines -- the detection plane has no false positives on
        clean traffic."""
        rig = AdversarialRig(SMALL, AdversaryConfig())
        rig.run_clock()
        counters = rig.deployment.misbehavior.snapshot()
        assert counters["pollution_detected"] == 0
        assert counters["peers_quarantined"] == 0
        assert counters["peers_evicted"] == 0
        assert rig.playback_fraction() >= SMALL.min_uninterrupted
