"""Tests for the Channel Server."""

import pytest

from repro.core.channel_server import ChannelServer
from repro.core.keystream import ContentKeyRing
from repro.core.packets import decrypt_packet
from repro.crypto.drbg import HmacDrbg


@pytest.fixture
def server():
    return ChannelServer("ch1", HmacDrbg(b"server"), key_epoch=60.0, key_lead_time=10.0)


class TestIngest:
    def test_frames_have_increasing_sequences(self, server):
        frames = [server.ingest_frame(float(i)) for i in range(5)]
        assert [f.sequence for f in frames] == [0, 1, 2, 3, 4]

    def test_synthetic_payload_size(self, server):
        frame = server.ingest_frame(0.0)
        assert len(frame.payload) == server.frame_size

    def test_explicit_payload_passthrough(self, server):
        frame = server.ingest_frame(0.0, payload=b"custom")
        assert frame.payload == b"custom"


class TestEncryptedEmission:
    def test_packet_decryptable_with_current_key(self, server):
        packet = server.emit_packet(30.0)
        ring = ContentKeyRing()
        ring.offer(server.current_key(30.0))
        assert len(decrypt_packet(ring, "ch1", packet)) == server.frame_size

    def test_serial_follows_rotation(self, server):
        early = server.emit_packet(30.0)
        late = server.emit_packet(90.0)
        assert early.serial == 0
        assert late.serial == 1

    def test_old_key_cannot_decrypt_new_epoch(self, server):
        """Forward secrecy: a key only unlocks its own epoch."""
        from repro.errors import DecryptionError

        ring = ContentKeyRing()
        ring.offer(server.current_key(30.0))
        late_packet = server.emit_packet(90.0)
        with pytest.raises(DecryptionError):
            decrypt_packet(ring, "ch1", late_packet)

    def test_emission_counted(self, server):
        server.emit_packet(0.0)
        server.emit_packet(1.0)
        assert server.packets_emitted == 2

    def test_pre_start_emit_does_not_inflate_counter(self):
        """Regression: a pre-start ProtocolError used to count a packet
        (and burn a sequence number) that never left the server."""
        from repro.errors import ProtocolError

        server = ChannelServer("late", HmacDrbg(b"late"), start_time=100.0)
        with pytest.raises(ProtocolError):
            server.emit_packet(50.0)
        assert server.packets_emitted == 0
        first = server.emit_packet(100.0)
        assert first.sequence == 0
        assert server.packets_emitted == 1


class TestUnencryptedChannel:
    """Footnote 2: public-mandate broadcasters distribute in the clear."""

    def test_payload_in_the_clear(self):
        server = ChannelServer("open", HmacDrbg(b"open"), encrypted=False)
        packet = server.emit_packet(0.0, payload=b"public content")
        assert packet.ciphertext == b"public content"
        assert packet.serial == 0


class TestKeyHandout:
    def test_keys_for_join_mid_epoch(self, server):
        keys = server.keys_for_join(30.0)
        assert [k.serial for k in keys] == [0]

    def test_keys_for_join_inside_lead_window(self, server):
        keys = server.keys_for_join(55.0)
        assert [k.serial for k in keys] == [0, 1]

    def test_upcoming_none_outside_window(self, server):
        assert server.upcoming_key(30.0) is None
        assert server.upcoming_key(51.0).serial == 1
