"""Tests for the burstiness statistic."""

import random

from repro.workload.arrivals import burstiness_index


class TestHelpers:
    def test_burstiness_poisson_near_one(self):
        rng = random.Random(5)
        t, times = 0.0, []
        while t < 10000.0:
            t += rng.expovariate(1.0)
            times.append(t)
        assert burstiness_index(times, bin_width=100.0) < 1.8

    def test_burstiness_flash_crowd_high(self):
        rng = random.Random(6)
        crowd = [5000.0 + rng.expovariate(3.0 / 60.0) for _ in range(1000)]
        background = [i * 10.0 for i in range(1000)]
        index = burstiness_index(sorted(crowd + background), bin_width=60.0)
        assert index > 10.0

    def test_burstiness_edge_cases(self):
        assert burstiness_index([], 10.0) == 0.0
        assert burstiness_index([5.0], 10.0) == 1.0
        assert burstiness_index([5.0, 5.0], 10.0) == 2.0
