"""Tests for the flash-crowd overlay storm driver."""

import pytest

from repro.errors import ReproError
from repro.p2p.storm import OverlayStormConfig, run_overlay_storm
from repro.trace.report import join_breakdown, render_join_breakdown


def small_config(**kwargs):
    kwargs.setdefault("viewers", 120)
    kwargs.setdefault("seed", 31)
    kwargs.setdefault("event_duration", 400.0)
    kwargs.setdefault("ramp", 60.0)
    return OverlayStormConfig(**kwargs)


@pytest.fixture(scope="module")
def arms():
    return {name: run_overlay_storm(small_config(sampler=name)) for name in ("ranked", "uniform")}


class TestStormRun:
    def test_everyone_joins(self, arms):
        for result in arms.values():
            assert result.joined == 120
            assert result.join_failures == 0

    def test_phases_cover_every_join(self, arms):
        for result in arms.values():
            for name in ("REDIRECT", "SWITCH", "JOIN", "FIRSTPKT"):
                assert len(result.phases[name]) >= result.joined - result.join_failures

    def test_departures_trigger_priced_repairs(self, arms):
        for result in arms.values():
            assert result.departed > 0
            assert result.repair_times, "mid-event churn must produce repairs"
            assert all(t > 0.0 for t in result.repair_times)

    def test_traces_recorded(self, arms):
        ranked = arms["ranked"]
        names = {span.name for span in ranked.tracer.spans}
        assert {"JOIN_E2E", "REDIRECT", "SWITCH", "JOIN", "FIRSTPKT", "REPAIR"} <= names

    def test_join_breakdown_decomposes_total(self, arms):
        rows = join_breakdown(arms["ranked"].tracer.spans)
        by_phase = {row["phase"]: row for row in rows}
        assert {"REDIRECT", "SWITCH", "JOIN", "TOTAL"} <= set(by_phase)
        assert by_phase["TOTAL"]["count"] == 120
        # The phase means must (approximately) add up to the total mean.
        phase_sum = sum(
            row["mean"] * row["count"] for row in rows if row["phase"] != "TOTAL"
        )
        total = by_phase["TOTAL"]["mean"] * by_phase["TOTAL"]["count"]
        assert phase_sum == pytest.approx(total, rel=0.01)
        assert "TOTAL" in render_join_breakdown(arms["ranked"].tracer.spans)

    def test_deterministic_under_seed(self, arms):
        again = run_overlay_storm(small_config(sampler="ranked"))
        assert again.join_latencies == arms["ranked"].join_latencies
        assert again.repair_times == arms["ranked"].repair_times

    def test_as_dict_shape(self, arms):
        payload = arms["ranked"].as_dict()
        assert payload["sampler"] == "ranked"
        assert payload["join_latency"]["count"] == 120
        assert set(payload["phases"]) == {"REDIRECT", "SWITCH", "JOIN", "FIRSTPKT"}
        assert 0.0 <= payload["parent_locality"] <= 1.0


class TestRankedVsUniform:
    def test_ranked_improves_locality(self, arms):
        assert arms["ranked"].parent_locality > arms["uniform"].parent_locality

    def test_ranked_builds_shallower_trees(self, arms):
        assert arms["ranked"].mean_depth < arms["uniform"].mean_depth

    def test_ranked_repairs_stay_local(self, arms):
        ranked = arms["ranked"].as_dict()
        uniform = arms["uniform"].as_dict()
        assert ranked["repair_locality"] > uniform["repair_locality"]


class TestShardedArm:
    def test_storm_runs_against_sharded_tier(self):
        result = run_overlay_storm(
            small_config(viewers=60, partitions=2, seed=37)
        )
        assert result.joined == 60
        assert result.join_failures == 0


class TestValidation:
    def test_unknown_sampler_rejected(self):
        with pytest.raises(ReproError):
            run_overlay_storm(small_config(sampler="psychic"))
