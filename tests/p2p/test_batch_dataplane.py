"""Tests for the batched key fan-out and the undecryptable-drop
counter."""

from repro.metrics.dataplane import counters as dataplane_counters

from .test_peer import ticketed_peer, watching_peer


class TestBatchedKeyFanout:
    def test_push_key_update_cascades_like_before(self, deployment):
        """The batched fan-out must reach grandchildren exactly as the
        per-child loop did (the paper's A->B->{D,E} cascade)."""
        overlay = deployment.overlay("free-ch")
        a = watching_peer(deployment, "a@example.org", capacity=4)
        b = ticketed_peer(deployment, "b@example.org", capacity=4)
        overlay.join(b, [a.descriptor()], now=2.0)
        d = ticketed_peer(deployment, "d@example.org")
        e = ticketed_peer(deployment, "e@example.org")
        overlay.join(d, [b.descriptor()], now=2.0)
        overlay.join(e, [b.descriptor()], now=2.0)
        sent = overlay.source.tick(55.0)
        assert sent >= 4
        for peer in (a, b, d, e):
            assert peer.client.key_ring.has(1)

    def test_fanout_counters(self, deployment):
        dataplane_counters.reset()
        parent = watching_peer(deployment, "p@example.org", capacity=4)
        c1 = ticketed_peer(deployment, "c1@example.org")
        c2 = ticketed_peer(deployment, "c2@example.org")
        overlay = deployment.overlay("free-ch")
        overlay.join(c1, [parent.descriptor()], now=2.0)
        overlay.join(c2, [parent.descriptor()], now=2.0)
        dataplane_counters.reset()
        key = deployment.server("free-ch").current_key(2.0)
        sent = parent.push_key_update(key, now=2.0)
        assert sent >= 2
        assert dataplane_counters.fanout_messages >= 2
        assert dataplane_counters.fanout_batches >= 1
        assert parent.key_updates_sent == 2

    def test_no_children_no_batch(self, deployment):
        dataplane_counters.reset()
        parent = watching_peer(deployment, "p@example.org")
        key = deployment.server("free-ch").current_key(2.0)
        assert parent.push_key_update(key, now=2.0) == 0
        assert dataplane_counters.fanout_batches == 0


class TestUndecryptableDropCounter:
    def test_drop_counted_per_peer_and_globally(self, deployment):
        overlay = deployment.overlay("free-ch")
        a = watching_peer(deployment, "a@example.org", capacity=2)
        b = ticketed_peer(deployment, "b@example.org", capacity=2)
        overlay.join(b, [a.descriptor()], now=2.0)
        from repro.core.keystream import ContentKeyRing

        a.client.key_ring = ContentKeyRing()
        dataplane_counters.reset()
        overlay.source.broadcast_packet(3.0)
        assert a.packets_dropped_undecryptable == 1
        assert dataplane_counters.packets_dropped_undecryptable == 1
        # The drop stopped propagation: b never saw the packet.
        assert b.client.packets_decrypted == 0

    def test_drop_visible_in_deployment_metrics(self, deployment):
        dataplane_counters.reset()
        overlay = deployment.overlay("free-ch")
        a = watching_peer(deployment, "a@example.org", capacity=2)
        from repro.core.keystream import ContentKeyRing

        a.client.key_ring = ContentKeyRing()
        overlay.source.broadcast_packet(3.0)
        snapshot = deployment.metrics.snapshot()
        assert snapshot["dataplane"]["packets_dropped_undecryptable"] == 1

    def test_healthy_path_drops_nothing(self, deployment):
        dataplane_counters.reset()
        overlay = deployment.overlay("free-ch")
        watching_peer(deployment, "a@example.org", capacity=2)
        overlay.source.broadcast_packet(3.0)
        assert dataplane_counters.packets_dropped_undecryptable == 0
