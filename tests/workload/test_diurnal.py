"""Tests for the diurnal profile."""

import pytest

from repro.workload.diurnal import (
    DiurnalProfile,
    is_peak_hour,
)


@pytest.fixture
def profile():
    return DiurnalProfile()


class TestPeakSplit:
    def test_paper_definition(self):
        """Peak is 18:00-24:00; off-peak is 00:00-18:00 (Section VI)."""
        assert is_peak_hour(18.0)
        assert is_peak_hour(23.99)
        assert not is_peak_hour(0.0)
        assert not is_peak_hour(12.0)
        assert not is_peak_hour(17.99)

    def test_wraps_past_midnight(self):
        assert is_peak_hour(18.0 + 24.0)
        assert not is_peak_hour(2.0 + 48.0)


class TestProfileShape:
    def test_evening_peak_dominates(self, profile):
        evening = profile.multiplier(20.5 * 3600)
        for hour in (3, 6, 9, 12, 15):
            assert evening > profile.multiplier(hour * 3600)

    def test_overnight_trough(self, profile):
        """The 0-6AM trough that gives the paper its small-sample spikes."""
        trough = min(profile.multiplier(h * 3600) for h in (2, 3, 4, 5))
        peak = profile.multiplier(20.5 * 3600)
        assert trough < peak * 0.1

    def test_multiplier_bounded(self, profile):
        for step in range(0, 7 * 24):
            value = profile.multiplier(step * 3600.0)
            assert 0.0 <= value <= profile.peak_multiplier()

    def test_weekend_hotter_than_weekday(self, profile):
        monday_noon = profile.multiplier(12 * 3600.0)
        saturday_noon = profile.multiplier((5 * 24 + 12) * 3600.0)
        assert saturday_noon > monday_noon

    def test_interpolation_continuous(self, profile):
        """No jumps bigger than the anchor deltas (piecewise linear)."""
        previous = profile.multiplier(0.0)
        for minute in range(1, 24 * 60):
            current = profile.multiplier(minute * 60.0)
            assert abs(current - previous) < 0.05
            previous = current

    def test_hourly_table_has_24_entries(self, profile):
        table = profile.hourly_table()
        assert len(table) == 24
        assert max(table) == pytest.approx(1.0, abs=0.25)
