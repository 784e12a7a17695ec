"""The Channel Server: ingest, encode, encrypt (Fig. 1, Section IV-E).

"Live content is ingested and encoded at the Channel Server.  If the
service provider wishes to encrypt the content for distribution,
encryption can be done at the Channel Server using symmetric key
encryption."

One Channel Server per channel.  It owns the channel's
:class:`~repro.core.keystream.ContentKeySchedule`, turns (synthetic)
media frames into encrypted :class:`~repro.core.packets.ContentPacket`
objects, and hands the current/upcoming content keys to the overlay
root for pair-wise distribution.  Some providers run *unencrypted* but
access-controlled channels (footnote 2 of the paper); ``encrypted=False``
models that: packets pass through in the clear while channel access
authorization still applies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.core.keystream import ContentKey, ContentKeySchedule
from repro.core.packets import ContentPacket, encrypt_packet
from repro.crypto.drbg import HmacDrbg
from repro.trace.span import Tracer, maybe_span


@dataclass(frozen=True)
class MediaFrame:
    """A synthetic encoded media frame from the ingest pipeline."""

    sequence: int
    payload: bytes
    timestamp: float


class ChannelServer:
    """Source of one channel's encrypted stream.

    Parameters
    ----------
    channel_id:
        The channel this server feeds.
    drbg:
        Key/material source (forked per channel by the deployment).
    key_epoch:
        Content-key rotation interval in seconds (paper example: 60).
    key_lead_time:
        Pre-distribution lead for upcoming keys.
    frame_size:
        Bytes per synthetic media frame (models the encoded bitrate:
        at 25 frames/s, 4 kB frames ~ 800 kbit/s).
    encrypted:
        False models public-mandate broadcasters who control access
        but refuse encryption (footnote 2).
    """

    def __init__(
        self,
        channel_id: str,
        drbg: HmacDrbg,
        key_epoch: float = 60.0,
        key_lead_time: float = 10.0,
        frame_size: int = 4096,
        encrypted: bool = True,
        start_time: float = 0.0,
    ) -> None:
        self.channel_id = channel_id
        self.encrypted = encrypted
        self.frame_size = frame_size
        self._payload_drbg = drbg.fork(b"payload")
        self.schedule = ContentKeySchedule(
            drbg.fork(b"keys"),
            epoch=key_epoch,
            lead_time=key_lead_time,
            start_time=start_time,
        )
        self._sequence = 0
        self.packets_emitted = 0
        #: Shared tracer, attached by Deployment.enable_tracing().
        self.tracer: Optional[Tracer] = None

    def ingest_frame(self, now: float, payload: Optional[bytes] = None) -> MediaFrame:
        """Produce one encoded frame (synthetic payload unless given)."""
        if payload is None:
            payload = self._payload_drbg.generate(self.frame_size)
        frame = MediaFrame(sequence=self._sequence, payload=payload, timestamp=now)
        self._sequence += 1
        return frame

    def emit_packet(self, now: float, payload: Optional[bytes] = None) -> ContentPacket:
        """Ingest one frame and seal it under the current content key.

        ``packets_emitted`` counts only packets that actually leave the
        server: the key lookup runs *before* the frame is ingested and
        counted, so a pre-start ``ProtocolError`` neither inflates the
        counter nor burns a sequence number.
        """
        if not self.encrypted:
            # Unencrypted channels still carry the serial byte (0) and
            # sequence so the packet format is uniform on the overlay.
            frame = self.ingest_frame(now, payload)
            self.packets_emitted += 1
            return ContentPacket(serial=0, sequence=frame.sequence, ciphertext=frame.payload)
        content_key = self.schedule.current_key(now)
        frame = self.ingest_frame(now, payload)
        packet = encrypt_packet(content_key, self.channel_id, frame.sequence, frame.payload)
        self.packets_emitted += 1
        return packet

    def current_key(self, now: float) -> ContentKey:
        """The active content key (for the overlay root)."""
        return self.schedule.current_key(now)

    def keys_for_join(self, now: float) -> List[ContentKey]:
        """Keys a newly joined peer must receive immediately."""
        with maybe_span(
            self.tracer, "CS.KEYS", now=now, kind="server", channel=self.channel_id
        ) as span:
            keys = self.schedule.distributable_keys(now)
            if span is not None:
                span.annotate("keys", len(keys))
            return keys

    def upcoming_key(self, now: float) -> Optional[ContentKey]:
        """The next key once within its distribution lead window."""
        return self.schedule.upcoming_key(now)
