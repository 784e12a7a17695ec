"""Byzantine peer injection: misbehaving overlay members on demand.

The paper's premise is that overlay peers are *untrusted* -- the DRM
must hold even when a peer tampers with content, withholds or replays
keys, or games parent selection.  This module supplies those peers:
:class:`AdversarialPeer` is a drop-in :class:`~repro.p2p.peer.Peer`
whose misbehaviors are switched on by a declarative
:class:`AdversaryConfig` schedule (in :mod:`repro.sim.faults` style),
and :class:`MisbehavingKeySender` does the same for the reliable
key-delivery layer.

Every injected misbehavior is also *recorded* (``injection_log``,
``tampered_ids``) so chaos scenarios can assert ground truth: a
tampered packet is identified by its ``(serial, sequence)`` and the
invariant "no honest client ever successfully decrypted a tampered
packet" is checked against that set, not against a heuristic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Set, Tuple

from repro.core.keystream import ContentKey
from repro.core.packets import ContentPacket, tampered_copy
from repro.core.protocol import KeyUpdate, PeerDescriptor
from repro.p2p.peer import Peer
from repro.p2p.reliable import ReliableKeySender


@dataclass(frozen=True)
class AdversaryConfig:
    """Declarative misbehavior schedule for one adversarial peer.

    All behaviors are off by default; a config with everything off is
    an honest peer.  ``start``/``stop`` bound the active window in
    simulation time, so a scenario can let an adversary behave well,
    earn children, and *then* turn -- the hardest case for detection.
    """

    #: Probability (0..1) of forwarding a polluted copy of each packet.
    tamper_packets: float = 0.0
    #: Never push key updates to children (key withholding).
    withhold_keys: bool = False
    #: Push the *oldest* ring key instead of the fresh one (children
    #: limp along until the stale serial ages out of their ring).
    stale_keys: bool = False
    #: Re-push the stalest key ever seen alongside every fresh one
    #: (serial replay: the old update re-enters the cascade long after
    #: its dedup marker and ring slot aged out).
    replay_keys: bool = False
    #: Advertise this fixed depth regardless of true tree position
    #: (None = honest).  Shallow lies game the ranked parent pipeline.
    lie_depth: Optional[int] = None
    #: Advertise this spare capacity regardless of truth (None = honest).
    lie_capacity: Optional[int] = None
    #: Misbehavior window; outside it the peer is honest.
    start: float = 0.0
    stop: float = float("inf")

    def active(self, now: float) -> bool:
        return self.start <= now < self.stop

    def misbehaves(self) -> bool:
        return (
            self.tamper_packets > 0.0
            or self.withhold_keys
            or self.stale_keys
            or self.replay_keys
            or self.lie_depth is not None
            or self.lie_capacity is not None
        )


class AdversarialPeer(Peer):
    """A Peer that misbehaves per its :class:`AdversaryConfig`.

    The adversary is an *authorized* viewer gone bad -- it holds a
    valid Channel Ticket and real keys (the paper's threat model:
    admission control cannot stop a paying subscriber from
    misbehaving).  What it cannot do is forge AEAD tags or mint keys,
    so its pollution is detectable and its replays are stale.
    """

    def __init__(self, *args, config: AdversaryConfig, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.config = config
        #: ``(when-ish ordering, kind, detail)`` ground-truth log of
        #: every injected misbehavior, for scenario assertions.
        self.injection_log: List[Tuple[str, str]] = []
        #: ``(serial, sequence)`` of every tampered packet this peer
        #: ever forwarded -- the pollution ground truth.
        self.tampered_ids: Set[Tuple[int, int]] = set()
        #: The exact polluted ciphertexts.  The honest copy of a
        #: tampered packet shares its (serial, sequence) -- other
        #: subtrees legitimately decrypt it -- so "no tampered packet
        #: ever decrypts" must be asserted against the polluted
        #: *bytes*, not the packet id.
        self.tampered_blobs: Set[bytes] = set()
        #: Old updates cached for replay, per child user id.
        self._replay_cache: List[ContentKey] = []
        self._clock = 0.0

    # -- clock ----------------------------------------------------------

    def _note_time(self, now: float) -> None:
        self._clock = max(self._clock, now)

    @property
    def _active(self) -> bool:
        return self.config.active(self._clock)

    # -- ranking lies ---------------------------------------------------

    def descriptor(self) -> PeerDescriptor:
        honest = super().descriptor()
        if not self._active:
            return honest
        depth_lie = self.config.lie_depth
        capacity_lie = self.config.lie_capacity
        if depth_lie is None and capacity_lie is None:
            return honest
        self.injection_log.append(("lie_descriptor", self.peer_id))
        return PeerDescriptor(
            peer_id=honest.peer_id,
            address=honest.address,
            region=honest.region,
            asn=honest.asn,
            spare_capacity=(
                capacity_lie if capacity_lie is not None else honest.spare_capacity
            ),
        )

    def _adopt_heartbeat_depth(self, update: KeyUpdate) -> None:
        # An honest peer refreshes its depth from the heartbeat; a
        # depth liar pins the advertised lie instead.  (The *ranking*
        # reads ``peer.depth``, so the pin is what games it.)
        if self._active and self.config.lie_depth is not None:
            self.depth = self.config.lie_depth
            return
        super()._adopt_heartbeat_depth(update)

    # -- data-plane pollution -------------------------------------------

    def _packet_for_children(self, packet: ContentPacket) -> ContentPacket:
        if self._active and self.config.tamper_packets > 0.0:
            if self._drbg.fork(
                b"tamper" + packet.sequence.to_bytes(8, "big")
            ).randbelow(1000) < int(self.config.tamper_packets * 1000):
                bad = tampered_copy(packet, flip_byte=packet.sequence % 7)
                self.tampered_ids.add((bad.serial, bad.sequence))
                self.tampered_blobs.add(bad.ciphertext)
                self.injection_log.append(
                    ("tamper", f"{bad.serial}:{bad.sequence}")
                )
                return bad
        return packet

    def _attribute_bad_packet(self, packet, from_peer) -> None:
        """An adversary never *reports* anyone (it has no standing in
        the detection plane) but otherwise consumes normally."""

    # -- key-plane misbehavior ------------------------------------------

    def _keys_for_children(self, content_key: ContentKey, now: float) -> List[ContentKey]:
        self._note_time(now)
        if not self._active:
            return [content_key]
        if self.config.withhold_keys:
            self.injection_log.append(("withhold", str(content_key.serial)))
            return []
        if self.config.replay_keys:
            # Honest pass-through first (children keep playing -- the
            # attack is the stale injection, not starvation), then the
            # stalest key ever cached rides along as a replay.
            keys = [content_key]
            if self._replay_cache:
                stale = self._replay_cache[0]
                self.injection_log.append(("replay", str(stale.serial)))
                keys.append(stale)
            self._replay_cache.append(content_key)
            return keys
        if self.config.stale_keys:
            serials = self.client.key_ring.serials()
            if serials:
                stale = self.client.key_ring.get(serials[0])
                if stale.serial != content_key.serial:
                    self.injection_log.append(("stale", str(stale.serial)))
                    return [stale]
        return [content_key]

    def _receive_key(self, update: KeyUpdate, parent: Peer, now: float):
        self._note_time(now)
        return super()._receive_key(update, parent, now)


class MisbehavingKeySender(ReliableKeySender):
    """A :class:`ReliableKeySender` that withholds, delays, or replays.

    The unit-level twin of the peer-cascade misbehaviors: exercises
    the reliable-delivery layer's own defenses (receiver dedup,
    activation-deadline abandonment) without a whole overlay.
    """

    def __init__(
        self,
        *args,
        withhold: bool = False,
        delay: float = 0.0,
        replay: bool = False,
        **kwargs,
    ) -> None:
        super().__init__(*args, **kwargs)
        self.withhold = withhold
        self.delay = delay
        self.replay = replay
        self.injection_log: List[Tuple[str, str]] = []
        self._old_updates: List[KeyUpdate] = []

    def send(self, update: KeyUpdate) -> None:
        if self.withhold:
            self.injection_log.append(("withhold", str(update.serial)))
            return
        if self.replay and self._old_updates:
            stale = self._old_updates[0]
            self.injection_log.append(("replay", str(stale.serial)))
            # Clear our own stop-and-wait marker first: an adversary
            # controls its sender state, so the honest "already acked,
            # don't retransmit" guard does not protect the receiver.
            self._acked.pop((stale.serial, stale.activate_at), None)
            super().send(stale)
        self._old_updates.append(update)
        if self.delay > 0.0:
            self.injection_log.append(("delay", str(update.serial)))
            self.link.sim.schedule(self.delay, lambda sim: super(
                MisbehavingKeySender, self
            ).send(update))
            return
        super().send(update)
