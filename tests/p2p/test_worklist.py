"""The data plane walks the tree as a worklist: depth and stale links.

Key cascade and packet forwarding run as explicit preorder worklists
owned by the peer that starts them, so a deep chain costs no Python
stack, and one child that fails its receive step is severed without
aborting the fan-out to its siblings.
"""

import sys

from repro.crypto.drbg import HmacDrbg
from repro.crypto.rsa import generate_keypair
from repro.metrics.dataplane import counters as dataplane_counters

from .test_peer import ticketed_peer, watching_peer


class TestStaleChild:
    def test_stale_child_does_not_darken_its_siblings(self, deployment):
        """source -> v0 -> {v1, v2}; v1 zaps away and nobody tells v0."""
        deployment.add_free_channel("other", regions=["CH"], now=0.0)
        overlay = deployment.overlay("free-ch")
        v0 = watching_peer(deployment, "v0@example.org")
        v1 = ticketed_peer(deployment, "v1@example.org")
        v2 = ticketed_peer(deployment, "v2@example.org")
        overlay.join(v1, [v0.descriptor()], now=2.0)
        overlay.join(v2, [v0.descriptor()], now=2.0)
        v1.client.switch_channel("other", now=3.0)  # no remove_peer
        dataplane_counters.reset()

        overlay.source.tick(50.0)
        overlay.source.tick(55.0)

        assert dataplane_counters.fanout_child_errors == 1
        assert list(v0.children) == [v2.client.channel_ticket.user_id]
        assert v2.client.key_ring.has(1)
        overlay.source.broadcast_packet(61.0)
        assert v2.client.decrypt_failures == 0
        assert v2.client.packets_decrypted == 1


class TestDepth:
    def test_chain_deeper_than_the_recursion_limit(self):
        from repro import Deployment

        depth = 250
        deployment = Deployment(seed=3, source_capacity=1)
        deployment.add_free_channel("news", regions=["CH"])
        overlay = deployment.overlay("news")
        keypair = generate_keypair(HmacDrbg(b"chain"), bits=deployment.key_bits)
        parent = overlay.source
        for n in range(depth):
            client = deployment.create_client(
                f"c{n}@example.org", "pw", region="CH", keypair=keypair
            )
            client.login(now=1.0)
            client.switch_channel("news", now=1.0)
            peer = deployment.make_peer(client, "news", capacity=1)
            overlay.join(peer, [parent.descriptor()], now=1.0)
            parent = peer
        last = parent

        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(200)  # the chain is deeper than this
        try:
            overlay.source.tick(50.0)
            overlay.source.broadcast_packet(61.0)
        finally:
            sys.setrecursionlimit(limit)

        assert last.client.key_ring.has(1)
        assert last.client.packets_decrypted == 1
        assert last.client.decrypt_failures == 0


class TestPushedMarkers:
    def test_markers_stay_bounded_and_no_key_is_pushed_twice(self, deployment):
        watching_peer(deployment, "v@example.org")
        source = deployment.overlay("free-ch").source
        pushed = []
        push = source.push_key_to_children

        def recording_push(content_key, now):
            pushed.append((content_key.serial, content_key.activate_at))
            return push(content_key, now)

        source.push_key_to_children = recording_push
        for n in range(300):
            source.tick(2.0 + 20.0 * n)
            assert len(source._pushed_serials) <= 2
        assert len(pushed) == len(set(pushed))
        assert len(pushed) >= 99  # one push per epoch of the 6 000 s run
