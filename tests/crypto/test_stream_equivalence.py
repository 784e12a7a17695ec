"""Equivalence pinning: vectorized cipher vs the scalar reference.

The data-plane fast path (cached XOF prefix state, single-squeeze
keystream, wide XOR, copied HMAC states) must be *byte-for-byte*
identical to the retained scalar implementation
(:func:`~repro.crypto.stream.reference_encrypt` /
:func:`~repro.crypto.stream.reference_decrypt`) -- same construction,
computed the slow way.  Any divergence would silently break
interoperability between peers running either path.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.drbg import HmacDrbg
from repro.crypto.stream import (
    SymmetricKey,
    _keystream,
    _reference_keystream,
    reference_decrypt,
    reference_encrypt,
)
from repro.errors import DecryptionError


@pytest.fixture
def key():
    return SymmetricKey.generate(HmacDrbg(b"equiv"))


# Sizes around every boundary the implementations treat specially:
# empty, single byte, one-below/at/one-above the 32-byte squeeze block,
# two blocks, a full 4 kB media frame, and beyond frame size.
BOUNDARY_SIZES = [0, 1, 31, 32, 33, 63, 64, 65, 4096, 4097, 10000]


class TestKeystreamEquivalence:
    @pytest.mark.parametrize("size", BOUNDARY_SIZES)
    def test_fast_matches_reference(self, key, size):
        assert _keystream(key.material, 7, size) == _reference_keystream(
            key.material, 7, size
        )

    def test_prefix_property(self, key):
        """A shorter squeeze is a prefix of a longer one (XOF property
        the reference implementation leans on)."""
        long = _keystream(key.material, 3, 256)
        for size in (1, 31, 32, 33, 255):
            assert _keystream(key.material, 3, size) == long[:size]


class TestCiphertextEquivalence:
    @pytest.mark.parametrize("size", BOUNDARY_SIZES)
    def test_encrypt_matches_reference(self, key, size):
        plaintext = bytes(i & 0xFF for i in range(size))
        fast = key.encrypt(plaintext, nonce=size + 1, aad=b"chan")
        slow = reference_encrypt(key, plaintext, nonce=size + 1, aad=b"chan")
        assert fast == slow

    @pytest.mark.parametrize("size", BOUNDARY_SIZES)
    def test_cross_decrypt(self, key, size):
        """Fast-sealed opens under reference and vice versa."""
        plaintext = bytes(size)
        fast_ct = key.encrypt(plaintext, nonce=2, aad=b"x")
        slow_ct = reference_encrypt(key, plaintext, nonce=2, aad=b"x")
        assert reference_decrypt(key, fast_ct, nonce=2, aad=b"x") == plaintext
        assert key.decrypt(slow_ct, nonce=2, aad=b"x") == plaintext

    def test_tamper_detected_by_both(self, key):
        ct = bytearray(key.encrypt(b"frame payload", nonce=1, aad=b"ch"))
        ct[3] ^= 0x40
        with pytest.raises(DecryptionError):
            key.decrypt(bytes(ct), nonce=1, aad=b"ch")
        with pytest.raises(DecryptionError):
            reference_decrypt(key, bytes(ct), nonce=1, aad=b"ch")

    def test_short_ciphertext_rejected_by_both(self, key):
        for blob in (b"", b"\x00" * 15):
            with pytest.raises(DecryptionError):
                key.decrypt(blob, nonce=1)
            with pytest.raises(DecryptionError):
                reference_decrypt(key, blob, nonce=1)


@given(
    plaintext=st.binary(min_size=0, max_size=8192),
    nonce=st.integers(min_value=0, max_value=2**63),
    aad=st.binary(max_size=64),
)
@settings(max_examples=120)
def test_property_fast_equals_reference(plaintext, nonce, aad):
    key = SymmetricKey.generate(HmacDrbg(b"prop-equiv"))
    fast = key.encrypt(plaintext, nonce, aad)
    assert fast == reference_encrypt(key, plaintext, nonce, aad)
    assert key.decrypt(fast, nonce, aad) == plaintext
    assert reference_decrypt(key, fast, nonce, aad) == plaintext
