"""DRM protocol messages: LOGIN1/2, SWITCH1/2, JOIN (Fig. 4).

Each dataclass is one message of one round.  The five *rounds* --
LOGIN1, LOGIN2, SWITCH1, SWITCH2, JOIN -- are exactly the units whose
latency the paper measures (Section VI); the client's side of each is
scripted once in :mod:`repro.core.exchange`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.core.challenge import Challenge
from repro.core.tickets import ChannelTicket, UserTicket
from repro.crypto.rsa import RsaPublicKey


# ----------------------------------------------------------------------
# Login protocol (client <-> User Manager), Fig. 4(a)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Login1Request:
    """Round 1 request: email address and the client's public key."""

    email: str
    client_public_key: RsaPublicKey


@dataclass(frozen=True)
class Login1Response:
    """Round 1 response: a stateless challenge token plus an
    shp-encrypted blob holding the nonce, the attestation checksum
    parameters, and the server's clock reading.

    Only a client that knows the account password can decrypt the blob;
    the token itself carries a *commitment* to the nonce, never the
    nonce, so eavesdroppers and password-less attackers learn nothing
    usable.
    """

    token: Challenge
    encrypted_blob: bytes
    blob_nonce: int


@dataclass(frozen=True)
class Login2Request:
    """Round 2 request: decrypted nonce, attestation checksum, client
    version, all signed with the client's private key."""

    email: str
    client_public_key: RsaPublicKey
    token: Challenge
    nonce: bytes
    checksum: bytes
    version: str
    signature: bytes


@dataclass(frozen=True)
class Login2Response:
    """Round 2 response: the signed User Ticket and timing information."""

    ticket: UserTicket
    server_time: float


# ----------------------------------------------------------------------
# Channel switching protocol (client <-> Channel Manager), Fig. 4(b)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Switch1Request:
    """Round 1 request: target channel (or expiring ticket, for
    renewal) plus the User Ticket."""

    user_ticket: UserTicket
    channel_id: Optional[str] = None
    expiring_ticket: Optional[ChannelTicket] = None

    def __post_init__(self) -> None:
        if (self.channel_id is None) == (self.expiring_ticket is None):
            raise ValueError(
                "exactly one of channel_id (new ticket) or "
                "expiring_ticket (renewal) must be given"
            )

    @property
    def is_renewal(self) -> bool:
        return self.expiring_ticket is not None

    @property
    def target_channel(self) -> str:
        if self.expiring_ticket is not None:
            return self.expiring_ticket.channel_id
        assert self.channel_id is not None
        return self.channel_id


@dataclass(frozen=True)
class Switch1Response:
    """Round 1 response: the nonce challenge."""

    token: Challenge


@dataclass(frozen=True)
class Switch2Request:
    """Round 2 request: the nonce signed with the client's private key."""

    user_ticket: UserTicket
    token: Challenge
    signature: bytes
    channel_id: Optional[str] = None
    expiring_ticket: Optional[ChannelTicket] = None

    @property
    def is_renewal(self) -> bool:
        return self.expiring_ticket is not None

    @property
    def target_channel(self) -> str:
        if self.expiring_ticket is not None:
            return self.expiring_ticket.channel_id
        assert self.channel_id is not None
        return self.channel_id


@dataclass(frozen=True)
class PeerDescriptor:
    """One entry of the (unsigned -- Section IV-G1) peer list.

    ``asn`` and ``spare_capacity`` are advisory hints for locality- and
    capacity-aware ranking; a peer may advertise 0 for either (older
    peers, or peers that decline to disclose), so consumers must treat
    them as best-effort and never as admission-relevant facts.
    """

    peer_id: str
    address: str
    region: str
    asn: int = 0
    spare_capacity: int = 0


@dataclass(frozen=True)
class Switch2Response:
    """Round 2 response: the Channel Ticket and the peer list.

    The peer list is intentionally *not* covered by any signature; the
    paper argues signing it buys nothing against an attacker who can
    already modify the victim's traffic (Section IV-G1).
    """

    ticket: ChannelTicket
    peers: Tuple[PeerDescriptor, ...] = ()


# ----------------------------------------------------------------------
# Peer join protocol (client <-> target peer), Fig. 4(c)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class JoinRequest:
    """The join request: the Channel Ticket for the carried channel."""

    channel_ticket: ChannelTicket


@dataclass(frozen=True)
class JoinAccept:
    """Join accepted: session key (encrypted to the client's public
    key) and the content keys the joiner needs now -- the active one
    plus any already pushed for the next epoch -- each as the same
    :class:`KeyUpdate` the push path sends (Section IV-E)."""

    peer_id: str
    encrypted_session_key: bytes
    key_updates: Tuple[KeyUpdate, ...]


@dataclass(frozen=True)
class JoinReject:
    """Join refused: out of capacity or invalid ticket."""

    peer_id: str
    reason: str


# ----------------------------------------------------------------------
# Content-key distribution (peer -> child), Section IV-E
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class KeyUpdate:
    """A new content key pushed down one tree link.

    ``serial`` is the 8-bit rotating serial number; ``activate_at`` is
    when the Channel Server starts encrypting with it (keys are sent
    "some amount of time in advance of their use").

    ``parent_depth`` piggybacks the sender's current tree depth on the
    update -- a heartbeat that lets every peer refresh its own depth
    (parent depth + 1) once per key epoch, so the ranking pipeline
    works from live depths instead of join-time snapshots.  It is a
    *hint* from an untrusted peer, never admission-relevant; the
    overlay's depth audit cross-checks it against the measured tree.
    """

    channel_id: str
    serial: int
    encrypted_content_key: bytes
    activate_at: float
    parent_depth: int = -1

    def __post_init__(self) -> None:
        if not 0 <= self.serial <= 0xFF:
            raise ValueError("content key serial must fit in 8 bits")
