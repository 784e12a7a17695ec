"""A departure must leave every viewer reachable and decrypting (ROADMAP item 15).

Known defect, kept visible: after the source's only child leaves, a
multi-parent (peer-division multiplexing) overlay repairs into a
cycle.  ``remove_peer`` reports the repair done and ``orphans()`` is
empty, yet ``check_tree`` finds ``cycle through peer-5`` and the next
packet reaches 1 of 59 viewers, with no decrypt failure counted.  The
same departure leaves a single-parent overlay intact.  The strict
xfail turns red the day item 15 closes the hole.
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


def assert_intact(overlay, viewers):
    overlay.check_tree()
    before = [viewer.client.packets_decrypted for viewer in viewers]
    overlay.source.broadcast_packet(21.0)
    dark = [
        viewer.peer_id
        for viewer, count in zip(viewers, before)
        if viewer.client.packets_decrypted != count + 1
    ]
    assert not dark, f"{len(dark)} of {len(viewers)} viewers missed the packet"


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 15: multi-parent repair re-homes a sub-stream under "
           "its own descendant (cycle through peer-5; 1 of 59 decrypt)",
)
def test_multiparent_overlay_survives_the_source_childs_departure():
    assert_intact(*departed_overlay(substream_count=4, multiparent=True))


@pytest.mark.parametrize("substream_count", [1, 4])
def test_single_parent_overlay_survives_the_same_departure(substream_count):
    assert_intact(*departed_overlay(substream_count, multiparent=False))
