"""One key hand-off: JOIN delivers the ``KeyUpdate``s the push path sends.

PAPER.md section 1 items 4-5: a joiner is handed the session key plus
the content keys it needs.  An admitted viewer must decrypt the packet
in flight *and* the first packet of the next epoch -- whenever it joins
(also inside the key lead window), whoever admits it (a peer or the
source), and across the 8-bit serial wrap.
"""

import pytest

from repro.core.keystream import ContentKeyRing
from repro.core.protocol import JoinAccept, JoinReject, JoinRequest

from .test_peer import ticketed_peer, watching_peer

EPOCH = 60.0
EPSILON = 1e-3


@pytest.fixture(params=[0, 255], ids=["serial-0", "serial-wrap"])
def lead_window(request, deployment):
    """A channel whose source has one child ``a`` and has already
    pushed the next key: t=50 is inside the lead window of the epoch
    that turns at t=60.  ``first`` is the schedule index live at t=0;
    255 puts the turn on the serial wrap (the channel simply started
    255 epochs ago, so nothing has to run that long)."""
    first = request.param
    deployment.add_free_channel("lead", regions=["CH"], now=-first * EPOCH)
    overlay = deployment.overlay("lead")
    a = watching_peer(deployment, "a@example.org", channel="lead", capacity=2)
    overlay.source.tick(50.0)
    live, upcoming = first % 256, (first + 1) % 256
    assert a.client.key_ring.serials() == [live, upcoming]
    return deployment, overlay, a, [live, upcoming]


def assert_plays_through_the_turn(overlay, viewer, join_time):
    """The packet in flight and the first one of the next epoch both
    decrypt, with no further ``tick``."""
    before = viewer.client.packets_decrypted
    for now in (join_time, EPOCH, EPOCH + 40.0):
        overlay.source.broadcast_packet(now)
    assert viewer.client.packets_decrypted - before == 3
    assert viewer.client.decrypt_failures == 0
    assert viewer.packets_dropped_undecryptable == 0


class TestJoinInsideTheLeadWindow:
    def test_under_a_peer(self, lead_window):
        deployment, overlay, a, serials = lead_window
        join_time = EPOCH - EPSILON
        b = ticketed_peer(deployment, "b@example.org", channel="lead", now=55.0)
        parent, _ = overlay.join(b, [a.descriptor()], now=join_time)
        assert parent is a
        assert b.client.key_ring.serials() == serials
        assert_plays_through_the_turn(overlay, b, join_time)

    def test_under_the_source_after_the_push(self, lead_window):
        """The next key was pushed once, before this child existed; the
        hand-off is the only way it can still arrive."""
        deployment, overlay, _, serials = lead_window
        v = ticketed_peer(deployment, "v@example.org", channel="lead", now=55.0)
        parent, _ = overlay.join(v, [overlay.source.descriptor()], now=56.0)
        assert parent is overlay.source
        assert v.client.key_ring.serials() == serials
        assert_plays_through_the_turn(overlay, v, 57.0)

    def test_hand_off_is_ordered_by_activation_not_serial(self, lead_window):
        deployment, overlay, a, serials = lead_window
        b = ticketed_peer(deployment, "b@example.org", channel="lead", now=55.0)
        accept = a.handle_join(
            JoinRequest(channel_ticket=b.client.channel_ticket),
            observed_addr=b.client.net_addr,
            now=56.0,
        )
        assert [update.serial for update in accept.key_updates] == serials
        activations = [update.activate_at for update in accept.key_updates]
        assert activations == [0.0, EPOCH]
        assert {update.channel_id for update in accept.key_updates} == {"lead"}
        # Past the turn only the now-active key is handed over.
        assert [key.serial for key in a.keys_for_join(EPOCH)] == serials[1:]


class TestHandOffGoesThroughTheRing:
    def test_rehomed_child_holding_both_keys_discards_both(self, lead_window):
        deployment, overlay, a, serials = lead_window
        b = ticketed_peer(deployment, "b@example.org", channel="lead", now=55.0)
        c = ticketed_peer(deployment, "c@example.org", channel="lead", now=55.0)
        overlay.join(b, [a.descriptor()], now=56.0)
        overlay.join(c, [b.descriptor()], now=56.0)
        sent_before = b.key_updates_sent
        discarded_before = b.client.key_ring.duplicates_discarded
        # b re-homes under the source: same two keys, nothing new.
        accept = b.client.join_peer(overlay.source, now=57.0)
        assert len(accept.key_updates) == 2
        assert b.client.key_ring.duplicates_discarded - discarded_before == 2
        assert b.client.key_ring.serials() == serials
        assert b.key_updates_sent == sent_before  # nothing re-cascaded to c

    def test_parent_with_empty_ring_rejects(self, deployment):
        parent = watching_peer(deployment, "parent@example.org")
        child = ticketed_peer(deployment, "child@example.org")
        parent.client.key_ring = ContentKeyRing()
        result = parent.handle_join(
            JoinRequest(channel_ticket=child.client.channel_ticket),
            observed_addr=child.client.net_addr,
            now=2.0,
        )
        assert isinstance(result, JoinReject)
        assert result.reason.endswith("holds no content key")
        assert parent.joins_rejected == 1 and not parent.children


class TestReplayFloorMovesWithTheRing:
    """The replay floor describes the ring it was learned from; a stale
    parent costs a counted, uninstalled key -- never the join."""

    @pytest.fixture
    def stale_parent(self, deployment):
        """Channel B's source never ticks, so ``p`` -- joined at t=665 --
        holds only the key that activated at t=660."""
        deployment.add_free_channel("b-ch", regions=["CH"])
        p = watching_peer(deployment, "p@example.org", channel="b-ch", now=665.0)
        (held,) = p.client.key_ring.serials()
        assert held == 11  # 660 / 60
        return p

    def test_switching_channel_resets_the_floor(self, deployment, stale_parent):
        v = watching_peer(deployment, "v@example.org", channel="free-ch", now=1490.0)
        deployment.overlay("free-ch").source.tick(1495.0)
        assert v.client._newest_key_activation == 1500.0

        v.client.switch_channel("b-ch", now=1501.0)
        assert v.client._newest_key_activation == 0.0
        accept = v.client.join_peer(stale_parent, now=1502.0)
        assert isinstance(accept, JoinAccept)
        assert v.client.key_ring.serials() == [11]
        assert v.client.key_replays_rejected == 0

        v.client.move_to("203.0.113.9")
        assert v.client._newest_key_activation == 0.0
        assert v.client.key_ring.serials() == []

    def test_rehoming_to_a_stale_parent_keeps_the_link_not_the_key(
        self, deployment, stale_parent
    ):
        overlay = deployment.overlay("b-ch")
        w = ticketed_peer(deployment, "w@example.org", channel="b-ch", now=1490.0)
        overlay.join(w, [overlay.source.descriptor()], now=1490.0)
        held = w.client.key_ring.serials()
        assert w.client._newest_key_activation == 1500.0  # joined in the lead window

        accept = w.client.join_peer(stale_parent, now=1503.0)
        assert [update.activate_at for update in accept.key_updates] == [660.0]
        assert w.client.key_replays_rejected == 1
        assert w.client.key_ring.serials() == held
        assert stale_parent.peer_id in w.client.parents
        assert w.client.channel_ticket.user_id in stale_parent.children
