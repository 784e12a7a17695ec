"""Tests for the authenticated stream cipher."""

import hashlib
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.drbg import HmacDrbg
from repro.crypto.stream import SymmetricKey, reference_encrypt
from repro.errors import DecryptionError, KeyFormatError


@pytest.fixture
def key():
    return SymmetricKey.generate(HmacDrbg(b"stream"))


class TestKeyBasics:
    def test_generated_key_is_128_bit(self, key):
        assert len(key.material) == 16

    def test_wrong_length_material_rejected(self):
        with pytest.raises(KeyFormatError):
            SymmetricKey(material=b"short")

    def test_generation_is_deterministic(self):
        a = SymmetricKey.generate(HmacDrbg(b"k"))
        b = SymmetricKey.generate(HmacDrbg(b"k"))
        assert a.material == b.material

    def test_fingerprint_does_not_leak_material(self, key):
        assert key.material.hex() not in key.fingerprint()
        assert len(key.fingerprint()) == 12


class TestEncryptDecrypt:
    def test_roundtrip(self, key):
        ct = key.encrypt(b"media frame", nonce=1)
        assert key.decrypt(ct, nonce=1) == b"media frame"

    def test_ciphertext_differs_from_plaintext(self, key):
        ct = key.encrypt(b"media frame", nonce=1)
        assert b"media frame" not in ct

    def test_nonce_changes_ciphertext(self, key):
        assert key.encrypt(b"x", nonce=1) != key.encrypt(b"x", nonce=2)

    def test_wrong_nonce_fails(self, key):
        ct = key.encrypt(b"payload", nonce=5)
        with pytest.raises(DecryptionError):
            key.decrypt(ct, nonce=6)

    def test_wrong_key_fails(self, key):
        other = SymmetricKey.generate(HmacDrbg(b"other"))
        ct = key.encrypt(b"payload", nonce=1)
        with pytest.raises(DecryptionError):
            other.decrypt(ct, nonce=1)

    def test_tampered_body_fails(self, key):
        ct = bytearray(key.encrypt(b"payload", nonce=1))
        ct[0] ^= 0x01
        with pytest.raises(DecryptionError):
            key.decrypt(bytes(ct), nonce=1)

    def test_tampered_tag_fails(self, key):
        ct = bytearray(key.encrypt(b"payload", nonce=1))
        ct[-1] ^= 0x01
        with pytest.raises(DecryptionError):
            key.decrypt(bytes(ct), nonce=1)

    def test_truncated_ciphertext_fails(self, key):
        with pytest.raises(DecryptionError):
            key.decrypt(b"\x00" * 8, nonce=1)

    def test_negative_nonce_rejected(self, key):
        with pytest.raises(ValueError):
            key.encrypt(b"x", nonce=-1)

    def test_empty_plaintext(self, key):
        ct = key.encrypt(b"", nonce=9)
        assert key.decrypt(ct, nonce=9) == b""
        assert len(ct) == 16  # tag only


class TestAssociatedData:
    def test_aad_must_match(self, key):
        ct = key.encrypt(b"frame", nonce=1, aad=b"ch1")
        assert key.decrypt(ct, nonce=1, aad=b"ch1") == b"frame"
        with pytest.raises(DecryptionError):
            key.decrypt(ct, nonce=1, aad=b"ch2")

    def test_missing_aad_fails(self, key):
        ct = key.encrypt(b"frame", nonce=1, aad=b"ch1")
        with pytest.raises(DecryptionError):
            key.decrypt(ct, nonce=1)

    def test_aad_is_not_encrypted_into_body(self, key):
        # Same plaintext, different AAD: bodies equal, tags differ.
        a = key.encrypt(b"frame", nonce=1, aad=b"x")
        b = key.encrypt(b"frame", nonce=1, aad=b"y")
        assert a[:-16] == b[:-16]
        assert a[-16:] != b[-16:]


#: Ciphertexts of ``bytes(i & 0xFF for i in range(size))`` under key
#: ``00 01 .. 0f`` with nonce ``size + 1``, as ``(size, aad) -> hex``.
#: Sizes straddle the 32-byte keystream block.  The 4096-byte media
#: frame is pinned by the SHA-256 of its ciphertext (8 kB of hex would
#: say no more).  The fast path and its scalar oracle are both held to
#: these literals, so the two cannot drift together.
GOLDEN = {
    (0, b""): "f799e38b14dc55cce1f74686d7b9a207",
    (0, b"channel-7"): "3e1ab5c764bd8813a5ed01edf9251610",
    (31, b""): (
        "58a04aecfb748bcebe971093ce85d56f2cb3733578af8ad5b069b42b430d71"
        "e3b336e0431931bac7e078c9bb1387a9"
    ),
    (31, b"channel-7"): (
        "58a04aecfb748bcebe971093ce85d56f2cb3733578af8ad5b069b42b430d71"
        "e658916c5a4c7a50ac4d7680cabb1e11"
    ),
    (32, b""): (
        "7966d594908179ec308031a87439be1ead624c3c2f0eb9dd3d3cb77ed04f10ff"
        "295ebf422b8688c95dcf817953847d83"
    ),
    (32, b"channel-7"): (
        "7966d594908179ec308031a87439be1ead624c3c2f0eb9dd3d3cb77ed04f10ff"
        "9a5c25da729e96145d937a473126b7e7"
    ),
    (33, b""): (
        "b0e03298a956c832846c68b1c675b3d03545cbbc10daeb631f819d70220a6d60ce"
        "ccdad07eefb62af8484ea387fd7e54a9"
    ),
    (33, b"channel-7"): (
        "b0e03298a956c832846c68b1c675b3d03545cbbc10daeb631f819d70220a6d60ce"
        "cbd989e15eabf95c0bc8a39317d6b4e5"
    ),
}
GOLDEN_SHA256 = {
    (4096, b""): "9e889f5408f5c859b1de056e429976d7c828e9ac94ce961252b149d3c4b638c9",
    (4096, b"channel-7"): (
        "345e1ff999c4511250b6402aba5554137a25922932c6a0f22129f6ae20afcdd9"
    ),
}


class TestGoldenVectors:
    KEY = SymmetricKey(material=bytes(range(16)))

    @staticmethod
    def sealed(encrypt, size, aad):
        plaintext = bytes(i & 0xFF for i in range(size))
        return encrypt(plaintext, size + 1, aad)

    @pytest.mark.parametrize("size,aad", sorted(GOLDEN))
    def test_ciphertext_literal(self, size, aad):
        expected = bytes.fromhex(GOLDEN[size, aad])
        assert self.sealed(self.KEY.encrypt, size, aad) == expected
        assert self.sealed(partial(reference_encrypt, self.KEY), size, aad) == expected

    @pytest.mark.parametrize("size,aad", sorted(GOLDEN_SHA256))
    def test_media_frame_digest(self, size, aad):
        expected = GOLDEN_SHA256[size, aad]
        for encrypt in (self.KEY.encrypt, partial(reference_encrypt, self.KEY)):
            ciphertext = self.sealed(encrypt, size, aad)
            assert hashlib.sha256(ciphertext).hexdigest() == expected
            assert len(ciphertext) == size + 16


@given(
    plaintext=st.binary(min_size=0, max_size=2048),
    nonce=st.integers(min_value=0, max_value=2**63),
    aad=st.binary(max_size=64),
)
@settings(max_examples=80)
def test_property_roundtrip(plaintext, nonce, aad):
    key = SymmetricKey.generate(HmacDrbg(b"prop-stream"))
    assert key.decrypt(key.encrypt(plaintext, nonce, aad), nonce, aad) == plaintext


@given(plaintext=st.binary(min_size=1, max_size=256), flip=st.integers(min_value=0))
@settings(max_examples=60)
def test_property_any_bitflip_detected(plaintext, flip):
    key = SymmetricKey.generate(HmacDrbg(b"prop-flip"))
    ct = bytearray(key.encrypt(plaintext, nonce=1))
    ct[flip % len(ct)] ^= 1 << (flip % 8) or 1
    if bytes(ct) == key.encrypt(plaintext, nonce=1):
        return  # the flip was a no-op (xor with 0); nothing to detect
    with pytest.raises(DecryptionError):
        key.decrypt(bytes(ct), nonce=1)
