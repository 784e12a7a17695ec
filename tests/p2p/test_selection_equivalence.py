"""Equivalence pin: index-backed selection == the O(n) scan oracle.

The whole point of the :class:`~repro.p2p.index.CandidateIndex` is
that it is an *optimization*, not a policy change: for any overlay
state reachable through the public event API, the ranked provider
must return byte-identical peer lists whether it answers from the
index or from :func:`~repro.p2p.selection.reference_ranked_sides`.  A Hypothesis state machine
drives a real deployment through randomized interleavings of the
events the index absorbs -- joins, departures (with their repair
cascades), in-place deaths, quarantine and release -- and after
every step asserts:

* SWITCH2 lists agree exactly (descriptor equality) for a requester
  in every region plus an unknown address;
* repair candidate lists agree exactly under the overlay's live
  source-connectivity probe;
* the memoized upward probe agrees with a naive per-peer upward
  search over the same validated edges;
* ``CandidateIndex.verify_against`` finds no drift.

Randomness note: the ranked path has none -- ties break on the
stable per-peer jitter -- which is exactly what makes exact
equality testable.
"""

import random

from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)
from hypothesis import strategies as st

from repro.crypto.drbg import HmacDrbg
from repro.crypto.rsa import generate_keypair
from repro.deployment import Deployment
from repro.errors import CapacityError
from repro.p2p.scorecard import POLLUTION
from repro.p2p.selection import RankedPeerListProvider, reference_ranked_sides

REGIONS = ("CH", "DE", "FR")
CHANNEL = "eq"

#: One RSA keypair for the whole synthetic fleet (keygen is setup
#: cost, irrelevant to selection semantics).
_FLEET_KEY = None


def fleet_key(bits):
    global _FLEET_KEY
    if _FLEET_KEY is None:
        _FLEET_KEY = generate_keypair(HmacDrbg(b"equiv", b"fleet"), bits=bits)
    return _FLEET_KEY


class ScanProvider(RankedPeerListProvider):
    """The provider with its gather+score stage swapped for the oracle."""

    def _ranked_sides(self, *args, **kwargs):
        return reference_ranked_sides(*args, **kwargs)


class SelectionEquivalence(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.deployment = Deployment(seed=5, source_capacity=16)
        self.deployment.add_free_channel(CHANNEL, regions=list(REGIONS))
        self.scorecard = self.deployment.enable_misbehavior_detection()
        self.overlay = self.deployment.overlay(CHANNEL)
        self.indexed = RankedPeerListProvider(
            self.deployment.overlays, self.deployment.geo
        )
        self.scan = ScanProvider(self.deployment.overlays, self.deployment.geo)
        self.serial = 0
        self.quarantined = set()
        self.now = 1.0

    # -- events ---------------------------------------------------------

    def _tick(self):
        self.now += 1.0
        return self.now

    @rule(region=st.sampled_from(REGIONS), capacity=st.integers(1, 4))
    def join(self, region, capacity):
        now = self._tick()
        self.serial += 1
        client = self.deployment.create_client(
            f"v{self.serial}@eq.example.org",
            "pw",
            region=region,
            keypair=fleet_key(self.deployment.key_bits),
        )
        client.login(now=now)
        try:
            self.deployment.watch(client, CHANNEL, now=now, capacity=capacity)
        except CapacityError:
            pass  # a full overlay is still a valid state to compare

    def _members(self):
        return sorted(self.overlay.peers)

    @precondition(lambda self: len(self.overlay.peers) > 0)
    @rule(pick=st.randoms(use_true_random=False))
    def depart(self, pick):
        """A peer leaves; the repair cascade re-parents its subtree."""
        peer_id = pick.choice(self._members())
        self.quarantined.discard(peer_id)
        self.overlay.remove_peer(peer_id, now=self._tick())

    @precondition(lambda self: len(self.overlay.peers) > 0)
    @rule(pick=st.randoms(use_true_random=False))
    def die_in_place(self, pick):
        """A peer goes dark without the overlay removing it: still a
        member, but no longer alive (and so no longer a candidate)."""
        peer = self.overlay.peers[pick.choice(self._members())]
        if peer.alive:
            peer.leave()

    @precondition(lambda self: len(self.overlay.peers) > 0)
    @rule(pick=st.randoms(use_true_random=False))
    def quarantine(self, pick):
        peer_id = pick.choice(self._members())
        for _ in range(4):
            self.scorecard.report(peer_id, POLLUTION, now=self._tick())
        self.quarantined.add(peer_id)

    @precondition(lambda self: bool(self.quarantined))
    @rule(pick=st.randoms(use_true_random=False))
    def release(self, pick):
        peer_id = pick.choice(sorted(self.quarantined))
        self.quarantined.discard(peer_id)
        self.scorecard.release(peer_id, now=self._tick())

    @rule()
    def contain(self):
        """Evict every quarantined member (their orphans get repaired)."""
        self.quarantined.clear()
        self.deployment.contain_misbehavior(now=self._tick())

    # -- the pin --------------------------------------------------------

    def _requesters(self):
        rng = random.Random(99)
        addrs = [
            self.deployment.geo.random_address(region, rng) for region in REGIONS
        ]
        addrs.append("203.0.113.9")  # not in the geo database: no record
        return addrs

    @invariant()
    def switch_lists_identical(self):
        for addr in self._requesters():
            for count in (4, 8):
                assert self.indexed(CHANNEL, addr, count) == self.scan(
                    CHANNEL, addr, count
                )

    @invariant()
    def repair_lists_identical(self):
        members = self._members()
        if not members:
            return
        orphan = self.overlay.peers[members[len(members) // 2]]
        probe = self.overlay._connectivity_probe()

        def accept(peer):
            return probe(peer.peer_id)

        a = self.indexed.select_repair(self.overlay, orphan, accept, 8)
        b = self.scan.select_repair(self.overlay, orphan, accept, 8)
        assert a == b

    @invariant()
    def probe_matches_naive_reachability(self):
        probe = self.overlay._connectivity_probe()
        for peer_id in self._members():
            assert probe(peer_id) == self._reachable(peer_id)

    def _reachable(self, peer_id):
        """Reference: plain upward search over validated edges."""
        source_id = self.overlay.source.peer_id
        seen = set()
        stack = [peer_id]
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            plan = self.overlay.plans.get(current)
            child = self.overlay.peers.get(current)
            if plan is None or child is None:
                continue
            for parent_id in set(plan.parents.values()):
                holder = (
                    self.overlay.source
                    if parent_id == source_id
                    else self.overlay.peers.get(parent_id)
                )
                if holder is None or not holder.alive:
                    continue
                if not any(
                    link.child_peer is child for link in holder.children.values()
                ):
                    continue
                if parent_id == source_id:
                    return True
                stack.append(parent_id)
        return False

    @invariant()
    def index_mirrors_overlay(self):
        self.overlay.index.verify_against(self.overlay)


TestSelectionEquivalence = SelectionEquivalence.TestCase
TestSelectionEquivalence.settings = settings(
    max_examples=12, stateful_step_count=18, deadline=None
)
