"""The diurnal viewing curve.

Fig. 5 of the paper plots concurrent users over a week: a deep
overnight trough (the paper's latency spikes "all occurring between
0AM-6AM" are small-sample artifacts of this trough), a daytime
shoulder, and a sharp evening peak.  Fig. 6 splits the day into peak
hours (18:00--24:00) and off-peak (00:00--18:00).

:class:`DiurnalProfile` maps an hour-of-day to a rate multiplier in
[0, 1] using a piecewise-linear curve through calibrated anchor
points, optionally modulated by a day-of-week factor (weekend
afternoons run hotter).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

#: The paper's peak-hours definition (Section VI): 18:00 to midnight.
PEAK_START_HOUR = 18
PEAK_END_HOUR = 24

#: Anchor points (hour, multiplier) for a television-shaped day.
_DEFAULT_ANCHORS: Tuple[Tuple[float, float], ...] = (
    (0.0, 0.30),
    (2.0, 0.10),
    (5.0, 0.04),
    (7.0, 0.12),
    (9.0, 0.22),
    (12.0, 0.35),
    (14.0, 0.30),
    (17.0, 0.45),
    (19.0, 0.80),
    (20.5, 1.00),
    (22.0, 0.90),
    (24.0, 0.30),
)

#: Mild weekly modulation: weekends watch more daytime TV.
_DAY_FACTORS = (1.00, 0.98, 0.98, 1.00, 1.05, 1.15, 1.12)  # Mon..Sun


def is_peak_hour(hour_of_day: float) -> bool:
    """The paper's peak/off-peak split (Section VI)."""
    return PEAK_START_HOUR <= (hour_of_day % 24.0) < PEAK_END_HOUR


@dataclass
class DiurnalProfile:
    """Hour-of-day to rate-multiplier curve."""

    anchors: Sequence[Tuple[float, float]] = _DEFAULT_ANCHORS
    day_factors: Sequence[float] = _DAY_FACTORS

    def multiplier(self, time_seconds: float) -> float:
        """Rate multiplier at an absolute time (seconds from Monday 00:00)."""
        hour = (time_seconds / 3600.0) % 24.0
        day = int(time_seconds // 86400.0) % 7
        return self._interpolate(hour) * self.day_factors[day]

    def _interpolate(self, hour: float) -> float:
        anchors = list(self.anchors)
        for (h0, v0), (h1, v1) in zip(anchors, anchors[1:]):
            if h0 <= hour <= h1:
                if h1 == h0:
                    return v1
                frac = (hour - h0) / (h1 - h0)
                return v0 + frac * (v1 - v0)
        return anchors[-1][1]

    def peak_multiplier(self) -> float:
        """The maximum multiplier over the day."""
        return max(v for _, v in self.anchors) * max(self.day_factors)

    def hourly_table(self) -> List[float]:
        """Multiplier sampled at each of the 24 hour marks (Monday)."""
        return [self._interpolate(float(h)) for h in range(24)]
