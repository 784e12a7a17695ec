"""Tests for the data-plane counters and their registry wiring."""

from repro.metrics import DataplaneCounters, dataplane_counters
from repro.metrics.registry import registry


class TestCounterObject:
    def test_starts_at_zero(self):
        fresh = DataplaneCounters()
        assert all(v == 0 for v in fresh.snapshot().values())

    def test_reset_zeroes_everything(self):
        c = DataplaneCounters()
        c.bytes_sealed = 10
        c.fanout_messages = 3
        c.reset()
        assert all(v == 0 for v in c.snapshot().values())

    def test_snapshot_is_a_copy(self):
        c = DataplaneCounters()
        snap = c.snapshot()
        c.packets_sealed = 5
        assert snap["packets_sealed"] == 0


class TestRegistryWiring:
    def test_global_registry_has_dataplane_source(self):
        snap = registry.snapshot()
        assert "dataplane" in snap
        assert "bytes_sealed" in snap["dataplane"]

    def test_deployment_metrics_expose_dataplane(self, deployment):
        assert "dataplane" in deployment.metrics.snapshot()


class TestEndToEndBalance:
    def test_seal_open_forward_counters_balance(self, deployment):
        """One source, two tree levels: every sealed packet is opened
        once per viewing peer and forwarded once per tree link."""
        from tests.p2p.test_peer import ticketed_peer, watching_peer

        overlay = deployment.overlay("free-ch")
        a = watching_peer(deployment, "a@example.org", capacity=2)
        b = ticketed_peer(deployment, "b@example.org", capacity=2)
        overlay.join(b, [a.descriptor()], now=2.0)
        dataplane_counters.reset()
        for _ in range(4):
            overlay.source.broadcast_packet(3.0)
        snap = dataplane_counters.snapshot()
        assert snap["packets_sealed"] == 4
        assert snap["packets_opened"] == 8  # a and b each open every packet
        assert snap["packets_forwarded"] == 8  # source->a and a->b links
        assert snap["packets_dropped_undecryptable"] == 0
        assert snap["bytes_sealed"] == 4 * 4096
        assert snap["bytes_opened"] == 8 * 4096
        # Sealing 4 frames + opening them twice covers >= 12 frames of
        # keystream; each 4 kB frame is 128 blocks.
        assert snap["keystream_blocks"] >= 12 * 128
