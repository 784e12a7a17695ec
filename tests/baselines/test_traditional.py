"""Tests for the traditional per-file DRM baseline."""

import random

from repro.baselines.traditional import TraditionalDrmSimulation


class TestFlashCrowdSimulation:
    def test_underprovisioned_server_queues_badly(self):
        # 10k licenses x 10ms = 100 server-seconds of work arriving in
        # a ~60s flash crowd: one server is saturated.
        simulation = TraditionalDrmSimulation(random.Random(1), service_time=0.01)
        result = simulation.run(arrivals=10000, n_servers=1, window=60.0)
        assert result.max_wait > simulation.sla  # SLA blown at the tail
        assert result.served_within_sla < 0.95

    def test_more_servers_cut_waits(self):
        simulation = TraditionalDrmSimulation(random.Random(2), service_time=0.01)
        small = simulation.run(arrivals=10000, n_servers=1, window=60.0)
        large = simulation.run(arrivals=10000, n_servers=8, window=60.0)
        assert large.p95_wait < small.p95_wait
        assert large.served_within_sla > small.served_within_sla

    def test_provisioning_search_finds_sla_point(self):
        simulation = TraditionalDrmSimulation(random.Random(3), service_time=0.01)
        needed = simulation.provisioning_needed(arrivals=2000, window=60.0)
        at_needed = simulation.run(2000, needed, window=60.0)
        assert at_needed.served_within_sla >= 0.95
        if needed > 1:
            below = simulation.run(2000, needed - 1, window=60.0)
            assert below.served_within_sla < 0.97  # near the knee

    def test_provisioning_grows_with_audience(self):
        simulation = TraditionalDrmSimulation(random.Random(4), service_time=0.01)
        small = simulation.provisioning_needed(arrivals=1000, window=60.0)
        large = simulation.provisioning_needed(arrivals=8000, window=60.0)
        assert large > small
