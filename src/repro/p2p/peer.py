"""A peer in one channel's distribution overlay.

The peer is where the DRM's *distributed* half runs (Sections IV-C,
IV-E): join admission is just four local checks against the Channel
Ticket (signature, expiry, NetAddr, carried channel), after which the
peer mints a pair-wise session key, and thereafter re-encrypts each
rotating content key once per child.  Content *packets* are forwarded
verbatim -- they are encrypted end-to-end by the Channel Server, so
forwarding costs no cryptography.

A peer also polices its children's ticket lifetimes: "a peer will
terminate a peering relationship whose Channel Ticket has expired if a
renewal ticket is not presented" (Section IV-D) -- the distributed
enforcement point for the one-location-per-account rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.core.client import Client
from repro.core.keystream import ContentKey
from repro.core.packets import (
    ContentPacket,
    reencrypt_key_for_link,
    reencrypt_key_for_links,
)
from repro.metrics.dataplane import counters as dataplane_counters
from repro.core.protocol import (
    JoinAccept,
    JoinReject,
    JoinRequest,
    KeyUpdate,
    PeerDescriptor,
)
from repro.core.tickets import ChannelTicket
from repro.crypto.drbg import HmacDrbg
from repro.crypto.rsa import RsaPublicKey
from repro.crypto.stream import SymmetricKey
from repro.errors import AuthorizationError, OverlayError, ReplayError, ReproError
from repro.p2p.scorecard import MISSING_KEY, POLLUTION, REPLAY
from repro.p2p.substreams import SubstreamAssignment
from repro.trace.span import Tracer, maybe_span


@dataclass
class ChildLink:
    """One accepted child relationship."""

    user_id: int
    session_key: SymmetricKey
    ticket: ChannelTicket
    child_peer: Optional["Peer"] = None
    substreams: Optional[List[int]] = None

    @property
    def ticket_expiry(self) -> float:
        return self.ticket.expire_time


class Peer:
    """One overlay member wrapping a DRM :class:`Client`.

    Parameters
    ----------
    peer_id:
        Stable overlay identifier (the deployment derives it from the
        UserIN).
    client:
        The wrapped DRM endpoint; its Channel Ticket admits this peer,
        its key ring decrypts the stream.
    channel_id:
        The channel this peer carries (a peer carries exactly one at a
        time, Section III).
    cm_public_key:
        The Channel Manager key used to verify joiners' tickets; known
        from the channel description.
    capacity:
        Maximum simultaneous children (uplink budget).
    """

    def __init__(
        self,
        peer_id: str,
        client: Client,
        channel_id: str,
        cm_public_key: RsaPublicKey,
        drbg: HmacDrbg,
        capacity: int = 4,
        region: str = "?",
        asn: int = 0,
    ) -> None:
        #: Membership-event hook, set by the owning overlay when the
        #: peer registers: fires on every state change a ranking can
        #: observe (child capacity deltas, depth adoption, locality
        #: edits, departure) so the overlay's candidate index stays
        #: current without polling.  None = unregistered (no-op).
        self.membership_listener: Optional[Callable[["Peer"], None]] = None
        self.peer_id = peer_id
        self.client = client
        self.channel_id = channel_id
        self.cm_public_key = cm_public_key
        self.capacity = capacity
        self._region = region
        self._asn = asn
        self._depth = 0
        self._drbg = drbg
        self.children: Dict[int, ChildLink] = {}
        self.alive = True
        self.joins_accepted = 0
        self.joins_rejected = 0
        self.key_updates_sent = 0
        self.packets_forwarded = 0
        #: Packets this peer could not decrypt and refused to forward
        #: (lost authorization, or hijacked/corrupted content).
        self.packets_dropped_undecryptable = 0
        #: Shared tracer, attached by Deployment.enable_tracing().
        self.tracer: Optional[Tracer] = None
        #: Shared PeerScorecard, attached by
        #: Deployment.enable_misbehavior_detection().  When present,
        #: undecryptable packets and replayed key updates are
        #: attributed to the forwarding parent.  None = no detection.
        self.scorecard = None

    @property
    def address(self) -> str:
        """The network address (the wrapped client's NetAddr)."""
        return self.client.net_addr

    @property
    def region(self) -> str:
        """Locality hint; writes publish a membership event (region is
        a candidate-index bucket key)."""
        return self._region

    @region.setter
    def region(self, value: str) -> None:
        if value == self._region:
            return
        self._region = value
        self._publish_membership_event()

    @property
    def asn(self) -> int:
        """Autonomous system number (0 = unknown / undisclosed); used
        by the ranked peer-list pipeline for same-AS preference.
        Writes publish a membership event (AS is a bucket key)."""
        return self._asn

    @asn.setter
    def asn(self, value: int) -> None:
        if value == self._asn:
            return
        self._asn = value
        self._publish_membership_event()

    @property
    def depth(self) -> int:
        """Advisory hop distance from the source, maintained by the
        overlay at join/repair time and refreshed by key-update
        heartbeats.  The ranked peer-list pipeline prefers shallow
        parents (startup/key latency proxy); ranking purely by spare
        capacity would herd every joiner onto the newest member and
        grow chains instead of trees.  Writes publish a membership
        event (depth is a ranking input the candidate index caches)."""
        return self._depth

    @depth.setter
    def depth(self, value: int) -> None:
        if value == self._depth:
            return
        self._depth = value
        self._publish_membership_event()

    def _publish_membership_event(self) -> None:
        if self.membership_listener is not None:
            self.membership_listener(self)

    def descriptor(self) -> PeerDescriptor:
        """This peer as a peer-list entry, with locality/capacity hints."""
        return PeerDescriptor(
            peer_id=self.peer_id,
            address=self.address,
            region=self.region,
            asn=self.asn,
            spare_capacity=self.spare_capacity,
        )

    @property
    def spare_capacity(self) -> int:
        """Child slots still free."""
        return max(0, self.capacity - len(self.children))

    # ------------------------------------------------------------------
    # Join admission (Fig. 4c)
    # ------------------------------------------------------------------

    def keys_for_join(self, now: float) -> List[ContentKey]:
        """The held keys a joiner must receive: the one active at
        ``now`` plus every pending one (at most two in an honest ring).

        Ordered by activation time, not serial: serials wrap at 256,
        activation times do not.
        """
        ring = self.client.key_ring
        held = sorted(
            (ring.get(serial) for serial in ring.serials()),
            key=lambda content_key: content_key.activate_at,
        )
        active = [key for key in held if key.activate_at <= now]
        return active[-1:] + held[len(active):]

    def handle_join(self, request: JoinRequest, observed_addr: str, now: float):
        """Admit or reject a joiner; returns JoinAccept or JoinReject.

        Admission runs the target-peer checks of Section IV-C -- and
        nothing more: "It does not need to evaluate channel viewing
        policies and it does not have access to any other user
        attributes."
        """
        with maybe_span(
            self.tracer, "JOIN.serve", now=now, kind="server", peer=self.peer_id
        ) as span:
            result = self._handle_join(request, observed_addr, now)
            if span is not None and isinstance(result, JoinReject):
                span.annotate("rejected", result.reason)
            return result

    def _handle_join(self, request: JoinRequest, observed_addr: str, now: float):
        if not self.alive:
            return JoinReject(peer_id=self.peer_id, reason="peer offline")
        ticket = request.channel_ticket
        try:
            ticket.verify(
                self.cm_public_key,
                now=now,
                expected_channel=self.channel_id,
                observed_addr=observed_addr,
            )
        except ReproError as exc:
            self.joins_rejected += 1
            return JoinReject(peer_id=self.peer_id, reason=f"ticket invalid: {exc}")
        if self.spare_capacity <= 0:
            self.joins_rejected += 1
            return JoinReject(peer_id=self.peer_id, reason="no capacity")

        session_key = SymmetricKey.generate(self._drbg)
        content_keys = self.keys_for_join(now)
        if not content_keys:
            self.joins_rejected += 1
            return JoinReject(
                peer_id=self.peer_id,
                reason=f"peer {self.peer_id} holds no content key",
            )
        self.children[ticket.user_id] = ChildLink(
            user_id=ticket.user_id, session_key=session_key, ticket=ticket
        )
        self.joins_accepted += 1
        self._publish_membership_event()
        return JoinAccept(
            peer_id=self.peer_id,
            encrypted_session_key=ticket.client_public_key.encrypt(
                session_key.material, self._drbg
            ),
            key_updates=tuple(
                self._key_update(
                    content_key,
                    reencrypt_key_for_link(content_key, session_key, self.channel_id),
                )
                for content_key in content_keys
            ),
        )

    def _key_update(self, content_key: ContentKey, blob: bytes) -> KeyUpdate:
        """The one link message a content key travels in, pushed or
        handed over at JOIN."""
        return KeyUpdate(
            channel_id=self.channel_id,
            serial=content_key.serial,
            encrypted_content_key=blob,
            activate_at=content_key.activate_at,
            parent_depth=self.depth,
        )

    def bind_child_peer(self, user_id: int, child: "Peer") -> None:
        """Attach the child's Peer object so pushes can reach it."""
        link = self.children.get(user_id)
        if link is None:
            raise OverlayError(f"no child link for user {user_id}")
        link.child_peer = child

    def set_child_substreams(self, user_id: int, substreams: List[int]) -> None:
        """Restrict which sub-streams flow to a child over this link."""
        link = self.children.get(user_id)
        if link is None:
            raise OverlayError(f"no child link for user {user_id}")
        link.substreams = list(substreams)

    # ------------------------------------------------------------------
    # Key distribution (Section IV-E)
    # ------------------------------------------------------------------

    def push_key_to_children(self, content_key: ContentKey, now: float) -> int:
        """Re-encrypt and push one content key to every child.

        Returns the number of link messages sent, including the cascade
        through every child that newly learns the key -- exactly the
        A->B->{D,E} cascade of the paper's example.
        """
        with maybe_span(
            self.tracer, "KEYPUSH", now=now, kind="push",
            peer=self.peer_id, serial=content_key.serial,
        ) as span:
            sent = self.push_key_update(content_key, now)
            if span is not None:
                span.annotate("sent", sent)
            return sent

    def push_key_update(self, content_key: ContentKey, now: float) -> int:
        """Push one key through the whole subtree; returns link messages sent.

        A preorder worklist, so depth costs no Python stack: each frame
        is one sender's fan-out, and a child that learns the key pushes
        its own frame on top.  A child whose receive step fails (a stale
        link) is counted and severed after its sender's loop.
        """
        sent = 0
        stack = [(self, self._key_messages(content_key, now), [])]
        while stack:
            sender, messages, failed = stack[-1]
            for link, update in messages:
                sent += 1
                child = link.child_peer
                if child is None:
                    continue
                try:
                    fresh = child._receive_key(update, sender, now)
                except ReproError:
                    dataplane_counters.fanout_child_errors += 1
                    failed.append(link.user_id)
                    continue
                if fresh is not None:
                    stack.append((child, child._key_messages(fresh, now), []))
                    break
            else:
                stack.pop()
                for user_id in failed:
                    sender.sever_child(user_id)
        return sent

    def _keys_for_children(self, content_key: ContentKey, now: float) -> List[ContentKey]:
        """The keys this peer hands its children for a fresh one."""
        return [content_key]

    def _key_messages(self, content_key: ContentKey, now: float):
        """Yield ``(link, KeyUpdate)`` for every link and every key handed
        on, sealing each key's links only once the walk reaches it."""
        for key in self._keys_for_children(content_key, now):
            links = list(self.children.values())
            if not links:
                return
            sessions = (link.session_key for link in links)
            blobs = reencrypt_key_for_links(key, sessions, self.channel_id)
            self.key_updates_sent += len(links)
            dataplane_counters.fanout_messages += len(links)
            dataplane_counters.fanout_batches += 1
            for link, blob in zip(links, blobs):
                yield link, self._key_update(key, blob)

    def receive_key_update(self, update: KeyUpdate, parent: "Peer", now: float) -> int:
        """Decrypt a pushed key; if new, cascade to our children."""
        fresh = self._receive_key(update, parent, now)
        return 0 if fresh is None else self.push_key_update(fresh, now)

    def _receive_key(self, update: KeyUpdate, parent: "Peer", now: float):
        """One hop of the key cascade: the key if it is fresh, else None."""
        with maybe_span(
            self.tracer, "KEYPUSH.recv", now=now, kind="push",
            peer=self.peer_id, serial=update.serial,
        ) as span:
            try:
                fresh = self.client.receive_key_update(update, parent_id=parent.peer_id)
            except ReplayError:
                # Older than the replay window: the parent is far behind
                # the stream or replaying -- either way, route around it.
                if span is not None:
                    span.annotate("replay_rejected", True)
                if self.scorecard is not None:
                    self.scorecard.report(parent.peer_id, REPLAY, now=now)
                return None
            # Heartbeat: the update carries the sender's depth, so ours
            # refreshes once per key epoch (AdversarialPeer keeps its lie).
            self._adopt_heartbeat_depth(update)
            if not fresh:
                if span is not None:
                    span.annotate("duplicate", True)
                return None
            return self.client.key_ring.get(update.serial)

    def _adopt_heartbeat_depth(self, update: KeyUpdate) -> None:
        if update.parent_depth >= 0:
            self.depth = update.parent_depth + 1

    # ------------------------------------------------------------------
    # Content forwarding
    # ------------------------------------------------------------------

    def forward_packet(self, packet: ContentPacket, substream_count: int = 1) -> int:
        """Forward a packet through the whole subtree on its sub-stream.

        Packets travel unmodified (end-to-end encrypted by the Channel
        Server).  The walk is a preorder worklist of per-sender child
        iterators; a child that cannot decrypt stops it on its branch.
        Returns the number of this peer's own children reached.
        """
        substream = SubstreamAssignment(substream_count).substream_of(packet.sequence)
        forwarded = self.packets_forwarded
        stack = [(self, self._packet_for_children(packet), iter(self.children.values()))]
        while stack:
            sender, outgoing, links = stack[-1]
            for link in links:
                child = link.child_peer
                if child is None or (
                    link.substreams is not None and substream not in link.substreams
                ):
                    continue
                sender.packets_forwarded += 1
                dataplane_counters.packets_forwarded += 1
                if child._receive_packet(outgoing, sender):
                    # Leaves too: a tampering hook logs every decision.
                    onward = child._packet_for_children(outgoing)
                    if child.children:
                        stack.append((child, onward, iter(child.children.values())))
                        break
            else:
                stack.pop()
        return self.packets_forwarded - forwarded

    def _packet_for_children(self, packet: ContentPacket) -> ContentPacket:
        """The packet this peer hands its children: verbatim."""
        return packet

    def deliver_packet(
        self,
        packet: ContentPacket,
        substream_count: int = 1,
        from_peer: Optional["Peer"] = None,
    ) -> None:
        """Receive a packet: decrypt for local playback, then forward."""
        if self._receive_packet(packet, from_peer):
            self.forward_packet(packet, substream_count)

    def _receive_packet(self, packet: ContentPacket, sender: Optional["Peer"]) -> bool:
        """One hop of the forward path: True when the packet decrypted."""
        try:
            self.client.receive_packet(packet)
        except ReproError:
            # Undecryptable content (we lost authorization, or the
            # channel was hijacked) is not forwarded onward.  Counted:
            # a rising drop rate is how hijack and authorization-loss
            # events become observable in ``Deployment.metrics``.
            self.packets_dropped_undecryptable += 1
            dataplane_counters.packets_dropped_undecryptable += 1
            self._attribute_bad_packet(packet, sender)
            return False
        return True

    def _attribute_bad_packet(
        self, packet: ContentPacket, from_peer: Optional["Peer"]
    ) -> None:
        """Charge an undecryptable packet to the parent that sent it.

        Holding the packet's key means the ciphertext failed its AEAD
        tag -- the parent forwarded polluted bytes.  Not holding the
        key is weaker evidence (we may simply be behind), so it counts
        as key-withholding *suspicion* at reduced weight.
        """
        if self.scorecard is None or from_peer is None:
            return
        if self.client.key_ring.has(packet.serial):
            self.scorecard.report(from_peer.peer_id, POLLUTION)
        else:
            self.scorecard.report(from_peer.peer_id, MISSING_KEY, weight=0.5)

    # ------------------------------------------------------------------
    # Ticket-expiry enforcement (Section IV-D)
    # ------------------------------------------------------------------

    def present_renewal(self, user_id: int, renewed: ChannelTicket, now: float) -> None:
        """A child presents its renewal ticket before expiry.

        The renewal bit must be set and the ticket must verify for the
        same user, channel, and address as the original link.
        """
        link = self.children.get(user_id)
        if link is None:
            raise OverlayError(f"no child link for user {user_id}")
        if not renewed.renewal:
            raise AuthorizationError("presented ticket has no renewal bit")
        renewed.verify(
            self.cm_public_key,
            now=now,
            expected_channel=self.channel_id,
            observed_addr=link.ticket.net_addr,
        )
        if renewed.user_id != user_id:
            raise AuthorizationError("renewal ticket for a different user")
        link.ticket = renewed

    def enforce_ticket_expiry(self, now: float, grace: float = 0.0) -> List[int]:
        """Sever children whose tickets expired without renewal.

        Returns the severed user ids.  ``grace`` tolerates in-flight
        renewals.
        """
        severed: List[int] = []
        for user_id, link in list(self.children.items()):
            if now > link.ticket_expiry + grace:
                self.sever_child(user_id)
                severed.append(user_id)
        return severed

    def sever_child(self, user_id: int) -> None:
        """Terminate one peering relationship."""
        link = self.children.pop(user_id, None)
        if link is not None:
            self._publish_membership_event()
            if link.child_peer is not None:
                link.child_peer.client.drop_parent(self.peer_id)

    def leave(self) -> List["Peer"]:
        """Leave the overlay; returns orphaned child peers for repair.

        Only *live* children count as orphans: a stale link to a child
        that already departed (it never said goodbye) must not be
        resurrected by the repair machinery.
        """
        self.alive = False
        self._publish_membership_event()
        orphans = []
        for user_id, link in list(self.children.items()):
            if link.child_peer is not None and link.child_peer.alive:
                orphans.append(link.child_peer)
            self.sever_child(user_id)
        return orphans

    def detach_child_link(self, user_id: int) -> bool:
        """Drop the link to a departing child without touching the
        child's own state (the child is leaving; it cleans itself up).
        Returns True if a link existed."""
        if self.children.pop(user_id, None) is None:
            return False
        self._publish_membership_event()
        return True
