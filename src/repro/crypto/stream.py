"""Authenticated symmetric encryption: the content/session cipher.

The production system encrypts the channel signal with 128-bit AES
under a rotating *content key* and protects key-distribution hops with
per-link *session keys* (Section IV-E).  AES itself is irrelevant to
every quantity the paper measures, so this module substitutes a
keyed-XOF stream cipher with an encrypt-then-MAC HMAC tag
(substitution documented in DESIGN.md).  The interface mirrors an AEAD:

>>> key = SymmetricKey.generate(drbg)
>>> ct = key.encrypt(b"frame", nonce=7)
>>> key.decrypt(ct, nonce=7)
b'frame'

Integrity matters in the paper's threat model: encrypting the signal
exists partly "to detect when the channel has been hijacked, whereby
rogue contents are ... injected into the P2P network" (Section IV-E).
The MAC tag is what turns injection into a detectable event.

The cipher sits on the data-plane hot path -- every media frame is
sealed once at the Channel Server and opened at every peer, at 25
frames/s across the whole audience -- so the implementation is
vectorized end to end (DESIGN.md §11):

* the keystream for ``(key, nonce)`` is ``SHAKE256(key || "|ctr|" ||
  nonce_8)`` squeezed to the message length in **one** C-level call;
* the XOF prefix over ``key || "|ctr|"`` and the HMAC-SHA256 inner and
  outer pads are absorbed once per key, held in one LRU entry, and
  ``.copy()``'d per message -- a seal or open is one pass over C-level
  ``hashlib`` states with no Python HMAC wrapper;
* the keystream XOR runs as a single wide-integer (or numpy)
  operation instead of a per-byte generator.

:func:`reference_encrypt`/:func:`reference_decrypt` are a scalar
implementation of the *same* construction (per-32-byte-block squeeze,
per-byte XOR, fresh HMAC per tag); the equivalence suite pins the fast
path against them byte for byte, and golden vectors pin both.
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass
from functools import lru_cache

from repro.crypto.drbg import HmacDrbg
from repro.errors import DecryptionError, KeyFormatError
from repro.metrics.dataplane import counters as dataplane_counters

_KEY_LEN = 16  # 128-bit key, matching the paper's AES-128
_TAG_LEN = 16  # truncated HMAC-SHA256 tag
_BLOCK = 32  # keystream accounting unit (one SHA-256 output's worth)

#: One bounded LRU of per-key states, keyed by material and kept at
#: module level so frozen keys stay picklable (hashlib states are not).
_STATE_CACHE_MAX = 1024
_IPAD = bytes(byte ^ 0x36 for byte in range(256))
_OPAD = bytes(byte ^ 0x5C for byte in range(256))


@lru_cache(maxsize=_STATE_CACHE_MAX)
def _key_states(material: bytes):
    """The XOF over ``key || "|ctr|"`` and the HMAC-SHA256 inner/outer
    pads (RFC 2104: a 16-byte key is zero-padded to the 64-byte block)."""
    block = material.ljust(64, b"\0")
    return (
        hashlib.shake_256(material + b"|ctr|"),
        hashlib.sha256(block.translate(_IPAD)),
        hashlib.sha256(block.translate(_OPAD)),
    )


try:  # numpy is an optional accelerator; the wide-int path is always there
    import numpy as _np
except ImportError:  # pragma: no cover - exercised on numpy-free installs
    _np = None


def _keystream(key: bytes, nonce: int, length: int) -> bytes:
    """The keystream for (key, nonce): the cipher's own XOR over zeros."""
    prefix = _key_states(key)[0]
    return _apply_keystream(prefix, nonce.to_bytes(8, "big"), bytes(length))


def _apply_keystream(prefix, nonce_b: bytes, data) -> bytes:
    """XOR ``data`` with the keystream of one (key, nonce) in one squeeze."""
    length = len(data)
    xof = prefix.copy()
    xof.update(nonce_b)
    dataplane_counters.keystream_blocks += -(-length // _BLOCK)
    if _np is not None and length >= 256:
        return (
            _np.frombuffer(data, dtype=_np.uint8)
            ^ _np.frombuffer(xof.digest(length), dtype=_np.uint8)
        ).tobytes()
    return (
        int.from_bytes(data, "big") ^ int.from_bytes(xof.digest(length), "big")
    ).to_bytes(length, "big")


def _reference_keystream(key: bytes, nonce: int, length: int) -> bytes:
    """Scalar keystream: re-absorb and squeeze per 32-byte block.

    Computes exactly the bytes of :func:`_keystream` the slow way,
    leaning on the XOF prefix property (``digest(n)`` is a prefix of
    ``digest(m)`` for ``n <= m``): block ``i`` re-absorbs the whole
    input from scratch and squeezes through offset ``32*(i+1)``.
    Retained as the behavioural pin for the vectorized path -- the
    equivalence suite asserts byte-for-byte agreement.
    """
    out = bytearray()
    nonce_b = nonce.to_bytes(8, "big", signed=False)
    block_index = 0
    while len(out) < length:
        end = (block_index + 1) * _BLOCK
        block = hashlib.shake_256(key + b"|ctr|" + nonce_b).digest(end)[-_BLOCK:]
        out.extend(block)
        block_index += 1
    return bytes(out[:length])


@dataclass(frozen=True)
class SymmetricKey:
    """A 128-bit symmetric key with AEAD-style encrypt/decrypt.

    Used both as the rotating *content key* (re-keyed every epoch by
    the Channel Server) and as the pair-wise *session key* shared by
    two adjacent peers in the distribution tree.
    """

    material: bytes

    def __post_init__(self) -> None:
        if len(self.material) != _KEY_LEN:
            raise KeyFormatError(f"symmetric key must be {_KEY_LEN} bytes")

    @classmethod
    def generate(cls, drbg: HmacDrbg) -> "SymmetricKey":
        """Draw a fresh key from the given DRBG."""
        return cls(material=drbg.generate(_KEY_LEN))

    def encrypt(self, plaintext: bytes, nonce: int, aad: bytes = b"") -> bytes:
        """Encrypt and authenticate ``plaintext``.

        ``nonce`` must be unique per key (content packets use their
        sequence number; key-distribution messages use the content-key
        serial).  ``aad`` binds additional context (e.g. the channel id)
        into the tag without encrypting it.
        """
        if nonce < 0:
            raise ValueError("nonce must be non-negative")
        prefix, inner, outer = _key_states(self.material)
        nonce_b = nonce.to_bytes(8, "big")
        body = _apply_keystream(prefix, nonce_b, plaintext)
        mac = inner.copy()
        mac.update(nonce_b + len(aad).to_bytes(4, "big") + aad)
        mac.update(body)
        tag = outer.copy()
        tag.update(mac.digest())
        return body + tag.digest()[:_TAG_LEN]

    def decrypt(self, ciphertext, nonce: int, aad: bytes = b"") -> bytes:
        """Verify the tag and decrypt; raise :class:`DecryptionError` on tamper.

        Accepts any bytes-like buffer; the body/tag split is done over
        a :class:`memoryview` so opening a wire-decoded packet never
        copies the ciphertext.  The tag is checked before any
        keystream is drawn.
        """
        if len(ciphertext) < _TAG_LEN:
            raise DecryptionError("ciphertext shorter than tag")
        prefix, inner, outer = _key_states(self.material)
        nonce_b = nonce.to_bytes(8, "big")
        view = memoryview(ciphertext)
        body = view[:-_TAG_LEN]
        mac = inner.copy()
        mac.update(nonce_b + len(aad).to_bytes(4, "big") + aad)
        mac.update(body)
        tag = outer.copy()
        tag.update(mac.digest())
        if not hmac.compare_digest(view[-_TAG_LEN:], tag.digest()[:_TAG_LEN]):
            raise DecryptionError("integrity tag mismatch")
        return _apply_keystream(prefix, nonce_b, body)

    def fingerprint(self) -> str:
        """Short identifier safe for logs (does not reveal the key).

        Memoized on first use: tracing and log formatting call this on
        every event, and the key is frozen, so one SHA-256 suffices.
        """
        cached = self.__dict__.get("_fingerprint_cache")
        if cached is not None:
            return cached
        fp = hashlib.sha256(b"fp|" + self.material).hexdigest()[:12]
        object.__setattr__(self, "_fingerprint_cache", fp)
        return fp


def reference_encrypt(
    key: "SymmetricKey", plaintext: bytes, nonce: int, aad: bytes = b""
) -> bytes:
    """Scalar encrypt: byte-identical to :meth:`SymmetricKey.encrypt`.

    Per-byte generator XOR over :func:`_reference_keystream`, with a
    fresh HMAC per tag.  The equivalence suite pins the fast path
    against this.
    """
    if nonce < 0:
        raise ValueError("nonce must be non-negative")
    stream = _reference_keystream(key.material, nonce, len(plaintext))
    body = bytes(a ^ b for a, b in zip(plaintext, stream))
    tag = _fresh_tag(key.material, body, nonce, aad)
    return body + tag


def reference_decrypt(
    key: "SymmetricKey", ciphertext: bytes, nonce: int, aad: bytes = b""
) -> bytes:
    """Scalar decrypt: byte-identical to :meth:`SymmetricKey.decrypt`."""
    if len(ciphertext) < _TAG_LEN:
        raise DecryptionError("ciphertext shorter than tag")
    ciphertext = bytes(ciphertext)
    body, tag = ciphertext[:-_TAG_LEN], ciphertext[-_TAG_LEN:]
    expected = _fresh_tag(key.material, body, nonce, aad)
    if not hmac.compare_digest(tag, expected):
        raise DecryptionError("integrity tag mismatch")
    stream = _reference_keystream(key.material, nonce, len(body))
    return bytes(a ^ b for a, b in zip(body, stream))


def _fresh_tag(material: bytes, body: bytes, nonce: int, aad: bytes) -> bytes:
    msg = nonce.to_bytes(8, "big") + len(aad).to_bytes(4, "big") + aad + body
    return hmac.new(material, msg, hashlib.sha256).digest()[:_TAG_LEN]
