"""Peer selection policy for the Channel Manager's peer lists.

The base overlay samples uniformly among peers with spare capacity
(:meth:`~repro.p2p.overlay.ChannelOverlay.sample_peers`, the baseline
arm).  Production deployments prefer *locality*: a parent in the
viewer's own region roughly halves the join RTT and keeps inter-ISP
traffic down (the simulator's :func:`repro.sim.network.peer_rtt`
encodes the same same-region/cross-region split).
:class:`RankedPeerListProvider` is the
:data:`~repro.core.channel_manager.PeerListProvider` that does so: the
full ranking pipeline (same-AS, then same-region, then shallow depth,
then spare upload capacity), which also serves the churn-repair path
through :meth:`~RankedPeerListProvider.select_repair`.

It enforces the *same-region-fraction privacy cap*: at most that
fraction of a returned list is drawn from the requester's own
region/AS, so peer lists never become a region-partition oracle --
peer lists already reveal addresses, they should not additionally sort
the world by geography for free.

Requests are answered from the overlay's incrementally-maintained
:class:`~repro.p2p.index.CandidateIndex` -- O(count + buckets.log) per
request.  :func:`reference_ranked_sides` is the O(n) scan the index
replaced, kept as the oracle the Hypothesis equivalence suite pins the
index against across churn interleavings; nothing in ``src/`` calls
it.  The two agree byte for byte because ranking ties break on a
stable per-peer keyed hash (:func:`~repro.p2p.index.stable_jitter`
under the overlay's salt), not per-request randomness.  Herding is
still avoided: every accepted join changes the winner's spare capacity
and rotates its bucket's head before the next request.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.protocol import PeerDescriptor
from repro.metrics.selection import counters
from repro.p2p.index import stable_jitter
from repro.p2p.overlay import ChannelOverlay
from repro.p2p.peer import Peer


def merge_with_quota(
    local: Sequence[Peer],
    remote: Sequence[Peer],
    slots: int,
    local_quota: int,
) -> Tuple[List[Peer], List[Peer]]:
    """Fill ``slots`` picks: up to ``local_quota`` from ``local``, the
    rest from ``remote``, topping back up from whichever side still has
    members when the other runs short.

    Returns ``(chosen, leftovers)`` where ``leftovers`` preserves rank
    order, so callers can keep topping up (e.g. when the source turns
    out to be saturated).  Membership is tracked by an id-set of
    ``peer_id`` -- the historical ``peer not in chosen`` list scan was
    O(n^2) and, combined with a leftover slice that offset by the quota
    rather than by how many remote peers were actually taken, could
    re-consider already-chosen peers.
    """
    slots = max(0, slots)
    local_take = min(len(local), max(0, local_quota), slots)
    chosen: List[Peer] = list(local[:local_take])
    remote_take = min(len(remote), slots - local_take)
    chosen.extend(remote[:remote_take])
    chosen_ids = {peer.peer_id for peer in chosen}
    leftovers: List[Peer] = []
    for peer in list(local[local_take:]) + list(remote[remote_take:]):
        if peer.peer_id in chosen_ids:
            continue
        if len(chosen) < slots:
            chosen.append(peer)
            chosen_ids.add(peer.peer_id)
        else:
            leftovers.append(peer)
    return chosen, leftovers


def _proximity(peer: Peer, record) -> int:
    """2 = same AS, 1 = same region, 0 = elsewhere/unknown."""
    if record is None:
        return 0
    asn = getattr(peer, "asn", 0)
    if asn and asn == record.asn:
        return 2
    if peer.region == record.region:
        return 1
    return 0


def reference_ranked_sides(
    overlay: ChannelOverlay,
    record,
    exclude_addr: str,
    need: int,
    accept: Optional[Callable[[Peer], bool]] = None,
) -> Tuple[List[Peer], List[Peer]]:
    """The O(n) scan oracle for :meth:`RankedPeerListProvider._ranked_sides`.

    Gathers every eligible member, sorts the lot by the shared ranking
    key, and splits it into the requester-local and remote rank lists,
    each truncated to ``need``.  Byte-identical to the index path by
    construction of the key; tests compare the two, production never
    calls this.
    """
    eligible = [
        peer
        for peer in overlay.peers.values()
        if peer.alive
        and peer.spare_capacity > 0
        and peer.address != exclude_addr
        and overlay.admissible(peer)
    ]
    counters.candidates_considered += len(eligible)
    if accept is not None:
        eligible = [peer for peer in eligible if accept(peer)]
    salt = overlay.selection_salt
    ordered = sorted(
        eligible,
        key=lambda peer: (
            -_proximity(peer, record),
            peer.depth,
            -peer.spare_capacity,
            stable_jitter(salt, peer.peer_id),
            peer.peer_id,
        ),
    )
    local = [p for p in ordered if _proximity(p, record) > 0][:need]
    remote = [p for p in ordered if _proximity(p, record) == 0][:need]
    return local, remote


class RankedPeerListProvider:
    """SWITCH2 peer lists ranked by (same-AS, same-region, spare capacity).

    The pipeline the Channel Manager runs per request:

    1. *gather* -- live members with spare capacity, requester excluded;
    2. *score* -- proximity class first (2 = same AS, 1 = same region,
       0 = elsewhere), then advertised tree depth (shallow parents cut
       startup and key-propagation latency -- and ranking by capacity
       alone would herd joiners onto the newest member, growing chains
       instead of trees), then spare upload capacity, then a *stable*
       per-peer jitter (a keyed hash under the overlay's salt) so
       equally-good parents don't herd and the scan oracle agrees;
    3. *cap* -- the same-region-fraction privacy cap bounds how much of
       the list the requester's own region/AS may occupy;
    4. *top up* -- the source is appended as a last-resort candidate,
       and leftovers fill the list back to ``count`` when the source is
       saturated or one side of the cap runs short.

    The same scoring serves churn repair (:meth:`select_repair`), so
    an orphan re-parents with the ranking its original list used.

    The gather+score stages are a handful of heap pops from the
    overlay's :class:`~repro.p2p.index.CandidateIndex`.

    Parameters
    ----------
    overlays:
        channel id -> overlay map (the deployment's registry).
    geo:
        Database mapping a requester's address to its region and AS.
    same_region_fraction:
        At most this fraction of the returned list is requester-local;
        the remainder is drawn from elsewhere so a region with few
        peers still yields useful candidates.
    """

    def __init__(
        self,
        overlays: Dict[str, ChannelOverlay],
        geo,
        same_region_fraction: float = 0.75,
    ) -> None:
        if not 0.0 <= same_region_fraction <= 1.0:
            raise ValueError("same_region_fraction must be a fraction")
        self._overlays = overlays
        self._geo = geo
        self.same_region_fraction = same_region_fraction

    def _ranked_sides(
        self,
        overlay: ChannelOverlay,
        record,
        exclude_addr: str,
        need: int,
        accept: Optional[Callable[[Peer], bool]] = None,
    ) -> Tuple[List[Peer], List[Peer]]:
        """The requester-local and remote rank lists, each truncated to
        ``need`` -- the most either side can contribute to a
        ``need``-slot list, so truncation never changes output."""
        counters.index_hits += 1
        index = overlay.index
        return (
            index.top_local(record, need, exclude_addr, accept=accept),
            index.top_remote(record, need, exclude_addr, accept=accept),
        )

    # -- PeerListProvider interface -------------------------------------

    def __call__(
        self, channel_id: str, exclude_addr: str, count: int
    ) -> List[PeerDescriptor]:
        overlay = self._overlays.get(channel_id)
        if overlay is None or count <= 0:
            return []
        counters.requests += 1
        record = self._geo.lookup(exclude_addr)
        local, remote = self._ranked_sides(overlay, record, exclude_addr, count)
        # Privacy-cap merge with one slot held back for the source.
        local_quota = int(round((count - 1) * self.same_region_fraction))
        chosen, leftovers = merge_with_quota(local, remote, count - 1, local_quota)
        descriptors = [peer.descriptor() for peer in chosen]
        if overlay.source.spare_capacity > 0:
            descriptors.append(overlay.source.descriptor())
        # A saturated source must not shorten the list: top back up to
        # ``count`` from the leftover candidates (rank order preserved).
        for peer in leftovers:
            if len(descriptors) >= count:
                break
            descriptors.append(peer.descriptor())
        return descriptors[:count]

    def locality_fraction(
        self, channel_id: str, requester_addr: str, count: int = 8
    ) -> float:
        """Fraction of a sampled list in the requester's region (for tests)."""
        sample = self(channel_id, requester_addr, count)
        if not sample:
            return 0.0
        region = self._geo.region_of(requester_addr)
        local = sum(1 for d in sample if d.region == region)
        return local / len(sample)

    # -- churn repair ---------------------------------------------------

    def select_repair(
        self,
        overlay: ChannelOverlay,
        orphan: Peer,
        accept: Callable[[Peer], bool],
        count: int,
    ) -> List[PeerDescriptor]:
        """Ranked repair candidates for an orphan's re-join.

        Matches :data:`repro.p2p.overlay.RepairSelector`: the overlay
        passes its source-connectivity probe as ``accept`` and this
        provider draws the candidate set itself.  No source reservation
        here: ``remove_peer`` appends the source itself.
        """
        counters.requests += 1
        record = self._geo.lookup(orphan.address)
        local, remote = self._ranked_sides(
            overlay, record, orphan.address, count, accept=accept
        )
        local_quota = int(round(count * self.same_region_fraction))
        chosen, _ = merge_with_quota(local, remote, count, local_quota)
        return [peer.descriptor() for peer in chosen]
