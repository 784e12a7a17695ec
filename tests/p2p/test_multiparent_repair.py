"""A departure must leave every viewer reachable and decrypting (ROADMAP item 15).

After the source's only child leaves, a multi-parent (peer-division
multiplexing) overlay used to repair into a cycle: the repair probe
counted a candidate as reaching the source through the orphan itself,
or through another sub-stream, and re-homed a sub-stream under the
orphan's own descendant.  The next packet then reached 1 of 59 viewers.
Repair now walks each missing sub-stream's own parent chain, so every
viewer keeps decrypting every sub-stream.
"""

import pytest

from repro.deployment import Deployment

VIEWERS = 60


def departed_overlay(substream_count, multiparent):
    """60 viewers under one channel, then the source's only child leaves.

    The first 4 viewers join through ``watch`` (one parent each); the
    rest join through ``join_multiparent`` when ``multiparent`` is set.
    Returns ``(overlay, viewers still watching)``.
    """
    deployment = Deployment(seed=5, substream_count=substream_count)
    deployment.add_free_channel("news", regions=["CH"])
    overlay = deployment.overlay("news")
    viewers = []
    for n in range(VIEWERS):
        client = deployment.create_client(f"v{n}@example.org", "pw", region="CH")
        client.login(now=1.0)
        if n < 4 or not multiparent:
            viewers.append(deployment.watch(client, "news", now=2.0))
            continue
        response = client.switch_channel("news", now=2.0)
        peer = deployment.make_peer(client, "news", capacity=4)
        overlay.join_multiparent(peer, response.peers, now=2.0)
        viewers.append(peer)
    assert len(overlay.source.children) == 1 and viewers[0].peer_id == "peer-1"
    overlay.remove_peer("peer-1", 20.0)
    return overlay, viewers[1:]


def assert_intact(overlay, viewers, packets=1):
    """Every viewer decrypts each of ``packets`` consecutive packets,
    one per sub-stream when ``packets`` is the sub-stream count."""
    overlay.check_tree()
    before = [viewer.client.packets_decrypted for viewer in viewers]
    for n in range(packets):
        overlay.source.broadcast_packet(21.0 + n)
    dark = [
        viewer.peer_id
        for viewer, count in zip(viewers, before)
        if viewer.client.packets_decrypted != count + packets
    ]
    assert not dark, f"{len(dark)} of {len(viewers)} viewers missed a packet"


@pytest.mark.parametrize("substream_count", [2, 3, 4])
def test_multiparent_overlay_survives_the_source_childs_departure(substream_count):
    overlay, viewers = departed_overlay(substream_count, multiparent=True)
    assert_intact(overlay, viewers, packets=substream_count)


@pytest.mark.parametrize("substream_count", [1, 4])
def test_single_parent_overlay_survives_the_same_departure(substream_count):
    assert_intact(*departed_overlay(substream_count, multiparent=False))
