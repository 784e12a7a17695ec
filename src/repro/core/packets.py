"""Encrypted content packets.

Section IV-E: "By the Channel Server's pre-pending this serial number
to each content packet, the client would know which content key to use
to decrypt a packet."

A packet is: 1 serial byte || 8-byte sequence number || AEAD
ciphertext.  The sequence number doubles as the cipher nonce (unique
per key because re-keying happens far more often than 2^64 packets)
and gives receivers loss/reorder visibility.  The AEAD tag is what
detects channel hijacking: rogue packets "accidentally or maliciously
injected into the P2P network to masquerade as legitimate contents"
fail authentication at every honest client.

This module is on the data plane's hot path:
:func:`reencrypt_key_for_links` hoists the invariant work of a key
fan-out -- AAD encoding, nonce, key material -- out of the per-child
loop, and :meth:`ContentPacket.from_bytes` accepts any bytes-like
buffer so wire decode can hand it a :class:`memoryview` without
copying first.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List

from repro.core.keystream import ContentKey, ContentKeyRing
from repro.crypto.stream import SymmetricKey
from repro.errors import DecryptionError
from repro.metrics.dataplane import counters as dataplane_counters

_HEADER_LEN = 1 + 8


@dataclass(frozen=True)
class ContentPacket:
    """One encrypted media packet as carried over the overlay."""

    serial: int
    sequence: int
    ciphertext: bytes

    def to_bytes(self) -> bytes:
        """Wire form: serial byte, sequence, ciphertext."""
        return (
            self.serial.to_bytes(1, "big")
            + self.sequence.to_bytes(8, "big")
            + bytes(self.ciphertext)
        )

    @classmethod
    def from_bytes(cls, blob) -> "ContentPacket":
        """Parse the wire form from any bytes-like buffer.

        A :class:`memoryview` input is parsed in place -- only the
        ciphertext is materialized, once; headers are read without
        slicing copies.
        """
        if len(blob) < _HEADER_LEN:
            raise DecryptionError("packet shorter than header")
        view = blob if isinstance(blob, memoryview) else memoryview(blob)
        return cls(
            serial=view[0],
            sequence=int.from_bytes(view[1:9], "big"),
            ciphertext=bytes(view[9:]),
        )

    @property
    def size(self) -> int:
        """Total wire size in bytes."""
        return _HEADER_LEN + len(self.ciphertext)


def encrypt_packet(
    content_key: ContentKey, channel_id: str, sequence: int, payload: bytes
) -> ContentPacket:
    """Channel Server side: seal a media payload into a packet.

    The channel id is bound as associated data so a packet captured on
    one channel cannot be replayed into another channel that happens
    to share key material (it never should, but defence in depth is
    cheap here).
    """
    ciphertext = content_key.key.encrypt(
        payload, nonce=sequence, aad=channel_id.encode("utf-8")
    )
    dataplane_counters.packets_sealed += 1
    dataplane_counters.bytes_sealed += len(payload)
    return ContentPacket(
        serial=content_key.serial, sequence=sequence, ciphertext=ciphertext
    )


def decrypt_packet(
    ring: ContentKeyRing, channel_id: str, packet: ContentPacket
) -> bytes:
    """Client side: select the key by serial byte and open the packet.

    Raises :class:`DecryptionError` when the serial is unknown (key
    not yet received, or we were de-authorized and stopped getting
    keys) or when the tag fails (hijacked/corrupted content).
    """
    content_key = ring.get(packet.serial)
    payload = content_key.key.decrypt(
        packet.ciphertext, nonce=packet.sequence, aad=channel_id.encode("utf-8")
    )
    dataplane_counters.packets_opened += 1
    dataplane_counters.bytes_opened += len(payload)
    return payload


def tampered_copy(packet: ContentPacket, flip_byte: int = 0) -> ContentPacket:
    """A polluted copy of ``packet``: same header, corrupted ciphertext.

    This is what a Byzantine parent forwards -- the serial and sequence
    still look legitimate, so a child selects the right key and only
    the AEAD tag check exposes the damage.  Flipping one ciphertext
    byte is indistinguishable (to the tag) from any other corruption.
    """
    body = bytearray(packet.ciphertext)
    if not body:
        raise ValueError("cannot tamper an empty ciphertext")
    body[flip_byte % len(body)] ^= 0xFF
    return ContentPacket(
        serial=packet.serial, sequence=packet.sequence, ciphertext=bytes(body)
    )


def reencrypt_key_for_link(
    content_key: ContentKey, session_key: SymmetricKey, channel_id: str
) -> bytes:
    """Encrypt a content key for one tree link (Section IV-E).

    Each peer "re-encrypts the content key ... with the session-key it
    shares with" each child.  The serial is the nonce -- unique per
    link per key -- and the channel id is bound as associated data.
    """
    return session_key.encrypt(
        content_key.key.material,
        nonce=content_key.serial,
        aad=b"keydist|" + channel_id.encode("utf-8"),
    )


def reencrypt_key_for_links(
    content_key: ContentKey,
    session_keys: Iterable[SymmetricKey],
    channel_id: str,
) -> List[bytes]:
    """Re-encrypt one content key for a whole set of child links.

    The per-message parts that do not vary across children -- the AAD,
    the nonce bytes, the key-material plaintext -- are built once; the
    per-child work is exactly one session-key encryption.
    """
    aad = b"keydist|" + channel_id.encode("utf-8")
    material = content_key.key.material
    serial = content_key.serial
    return [
        session_key.encrypt(material, nonce=serial, aad=aad)
        for session_key in session_keys
    ]


def decrypt_key_from_link(
    blob: bytes, serial: int, session_key: SymmetricKey, channel_id: str, activate_at: float
) -> ContentKey:
    """Invert :func:`reencrypt_key_for_link` at the receiving child."""
    material = session_key.decrypt(
        blob, nonce=serial, aad=b"keydist|" + channel_id.encode("utf-8")
    )
    return ContentKey(serial=serial, key=SymmetricKey(material=material), activate_at=activate_at)
