"""Tests for the week-long timing simulation (the Figs. 5/6 engine).

A reduced two-day run keeps this fast while still exercising the full
pipeline; the benchmark suite runs the full seven days.
"""

import pytest

from repro.experiments.common import ServiceTimes, WeeklongConfig
from repro.experiments.weeklong import WeeklongRunner
from repro.metrics.stats import ks_distance, median


@pytest.fixture(scope="module")
def result():
    config = WeeklongConfig(
        peak_concurrent=120,
        n_channels=20,
        horizon=2 * 86400.0,
    )
    return WeeklongRunner(config).run()


class TestSampleProduction:
    def test_all_five_rounds_sampled(self, result):
        for round_name in ("LOGIN1", "LOGIN2", "SWITCH1", "SWITCH2", "JOIN"):
            assert result.collector.count(round_name) > 100, round_name

    def test_switch_includes_renewals(self, result):
        switches = result.trace.count_of("SWITCH") + result.trace.count_of("RENEW")
        assert result.collector.count("SWITCH1") == switches

    def test_latencies_physical(self, result):
        """Every latency at least covers one WAN round trip."""
        for round_name in ("LOGIN1", "LOGIN2", "SWITCH1", "SWITCH2"):
            assert min(result.collector.latencies(round_name)) > 0.01

    def test_medians_sub_second(self, result):
        """The paper's Fig. 5 medians sit well under a second."""
        for round_name in ("LOGIN1", "LOGIN2", "SWITCH1", "SWITCH2", "JOIN"):
            assert median(result.collector.latencies(round_name)) < 1.0


class TestStructuralClaims:
    def test_server_rounds_weakly_correlated(self, result):
        """The paper's headline: |r| small for login/switch rounds."""
        for round_name in ("LOGIN1", "LOGIN2", "SWITCH1", "SWITCH2"):
            r = result.correlation(round_name, min_samples=5)
            assert abs(r) < 0.3, (round_name, r)

    def test_join_correlation_positive_but_weak(self, result):
        r = result.correlation("JOIN", min_samples=5)
        assert -0.05 < r < 0.45  # the paper's 0.13, with sampling noise

    def test_farms_run_far_from_saturation(self, result):
        """The mechanism behind flatness: utilization stays low."""
        assert result.um_utilization < 0.5
        assert all(u < 0.5 for u in result.cm_utilizations)

    def test_peak_offpeak_distributions_virtually_identical(self, result):
        """Fig. 6's claim, quantified by KS distance."""
        for round_name in ("LOGIN1", "SWITCH2", "JOIN"):
            peak, off_peak = result.collector.split_peak_offpeak(round_name)
            assert ks_distance(peak, off_peak) < 0.06, round_name


class TestDeterminism:
    def test_same_config_same_result(self):
        config = WeeklongConfig(peak_concurrent=40, n_channels=8, horizon=43200.0)
        a = WeeklongRunner(config).run()
        b = WeeklongRunner(config).run()
        assert a.collector.latencies("LOGIN1") == b.collector.latencies("LOGIN1")
        for name in ("LOGIN1", "LOGIN2", "SWITCH1", "SWITCH2", "JOIN"):
            assert a.correlation(name) == b.correlation(name)


class TestConfig:
    def test_presets(self):
        assert WeeklongConfig.fast().peak_concurrent < WeeklongConfig.paper_scale().peak_concurrent

    def test_with_peak(self):
        assert WeeklongConfig.fast().with_peak(999).peak_concurrent == 999

    def test_service_times_scaled(self):
        base = ServiceTimes()
        doubled = base.scaled(2.0)
        assert doubled.login1 == pytest.approx(base.login1 * 2)
        assert doubled.join_peer == pytest.approx(base.join_peer * 2)
