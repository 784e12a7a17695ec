"""Deterministic random bit generator (HMAC-DRBG, NIST SP 800-90A style).

All randomness used by the library's crypto layer flows through
:class:`HmacDrbg` so that simulations are reproducible: the same seed
produces the same RSA keys, nonces, session keys and content keys on
every run.  The construction follows the HMAC_DRBG of SP 800-90A
(instantiate / reseed / generate with the update function), minus the
prediction-resistance machinery that has no role in a simulation.
"""

from __future__ import annotations

import hashlib
import hmac
from typing import Optional


class HmacDrbg:
    """HMAC-SHA256 deterministic random bit generator.

    Parameters
    ----------
    seed:
        Entropy input.  Two generators built from equal seeds emit
        identical byte streams.
    personalization:
        Optional domain-separation string, so independent subsystems
        (e.g. the User Manager's nonce source and a peer's session-key
        source) can share one master seed without sharing a stream.
    """

    _HASHLEN = 32  # SHA-256 output size in bytes

    def __init__(self, seed: bytes, personalization: bytes = b"") -> None:
        if not isinstance(seed, (bytes, bytearray)):
            raise TypeError("seed must be bytes")
        self._key = b"\x00" * self._HASHLEN
        self._value = b"\x01" * self._HASHLEN
        self._reseed_counter = 1
        self._update(bytes(seed) + b"|" + personalization)

    def _hmac(self, key: bytes, data: bytes) -> bytes:
        return hmac.new(key, data, hashlib.sha256).digest()

    def _update(self, provided: Optional[bytes] = None) -> None:
        data = provided if provided is not None else b""
        self._key = self._hmac(self._key, self._value + b"\x00" + data)
        self._value = self._hmac(self._key, self._value)
        if provided is not None:
            self._key = self._hmac(self._key, self._value + b"\x01" + data)
            self._value = self._hmac(self._key, self._value)

    def reseed(self, entropy: bytes) -> None:
        """Mix additional entropy into the generator state."""
        self._update(entropy)
        self._reseed_counter = 1

    def generate(self, nbytes: int) -> bytes:
        """Return ``nbytes`` pseudorandom bytes."""
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        out = bytearray()
        while len(out) < nbytes:
            self._value = self._hmac(self._key, self._value)
            out.extend(self._value)
        self._update()
        self._reseed_counter += 1
        return bytes(out[:nbytes])

    def randint_bits(self, bits: int) -> int:
        """Return a uniform random integer with exactly ``bits`` bits.

        The top bit is forced to 1 so the result has the requested bit
        length -- the form needed for prime candidate generation.
        """
        if bits < 2:
            raise ValueError("bits must be >= 2")
        nbytes = (bits + 7) // 8
        raw = int.from_bytes(self.generate(nbytes), "big")
        raw &= (1 << bits) - 1
        raw |= 1 << (bits - 1)
        return raw

    def randbelow(self, upper: int) -> int:
        """Return a uniform random integer in ``[0, upper)``."""
        if upper <= 0:
            raise ValueError("upper must be positive")
        bits = upper.bit_length()
        nbytes = (bits + 7) // 8
        while True:
            candidate = int.from_bytes(self.generate(nbytes), "big")
            candidate &= (1 << bits) - 1
            if candidate < upper:
                return candidate

    def fork(self, label: bytes) -> "HmacDrbg":
        """Derive an independent child generator.

        Forking lets one master seed drive many components while keeping
        their streams independent: the child is keyed by fresh output of
        the parent plus a label, so sibling forks with distinct labels
        never correlate.

        Forking *consumes* 32 bytes of the parent's output, so it is a
        draw like any other: adding, removing or reordering a ``fork``
        call re-keys everything the parent generates or forks after it.
        """
        return HmacDrbg(self.generate(32), personalization=label)
