"""Tests for the centralized key-distribution baseline."""

import random

import pytest

from repro.baselines.central_keyserver import (
    CentralKeyServer,
    KeyDistributionComparison,
)


class TestRekeyStorm:
    def test_all_clients_served(self):
        server = CentralKeyServer(n_servers=4)
        result = server.rekey_storm(random.Random(1), clients=1000)
        assert result.server_requests == 1000
        assert result.mean_wait > 0

    def test_load_scales_with_audience(self):
        server = CentralKeyServer(n_servers=2)
        small = server.rekey_storm(random.Random(2), clients=500)
        large = server.rekey_storm(random.Random(2), clients=5000)
        assert large.p99_wait > small.p99_wait

    def test_zero_clients(self):
        server = CentralKeyServer(n_servers=1)
        result = server.rekey_storm(random.Random(3), clients=0)
        assert result.mean_wait == 0.0


class TestP2pPush:
    @pytest.fixture
    def comparison(self):
        return KeyDistributionComparison(random.Random(4), fanout=4)

    def test_server_messages_capped_at_fanout(self, comparison):
        for clients in (10, 1000, 100000):
            push = comparison.p2p_push(clients, source_fanout=16)
            assert push.server_messages <= 16

    def test_total_messages_equal_clients(self, comparison):
        push = comparison.p2p_push(5000)
        assert push.total_link_messages == 5000

    def test_depth_logarithmic(self, comparison):
        small = comparison.p2p_push(100)
        large = comparison.p2p_push(100000)
        assert large.tree_depth <= small.tree_depth + 6
        assert large.tree_depth >= small.tree_depth

    def test_propagation_grows_with_depth_only(self, comparison):
        d10k = comparison.p2p_push(10000)
        d100k = comparison.p2p_push(100000)
        assert d100k.propagation_p99 < d10k.propagation_p99 * 3

    def test_zero_clients(self, comparison):
        push = comparison.p2p_push(0)
        assert push.server_messages == 0
        assert push.tree_depth == 0

    def test_fanout_validated(self):
        with pytest.raises(ValueError):
            KeyDistributionComparison(random.Random(1), fanout=1)
