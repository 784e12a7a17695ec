"""Process-pool crypto plane.

The data plane's batch entry points (``SymmetricKey.encrypt_many``,
the key fan-out in ``reencrypt_key_for_links``) and batched RSA
private operations are pure CPU: no shared mutable state, inputs and
outputs are plain bytes and frozen dataclasses.  That makes them
natural units to ship to worker processes -- which is what
:class:`CryptoPool` does.

Design points:

* **Chunked submission, ordered stitching.**  A batch of *n* items is
  split into roughly ``2 x workers`` contiguous chunks (never smaller
  than ``min_chunk``); results are collected in submission order, so
  the stitched output is exactly what the in-process call would have
  produced.
* **Counter snapshot-and-merge.**  The dataplane/hotpath counters are
  process-global, so work done in a worker would silently vanish from
  ``Deployment.metrics``.  Every task snapshots the worker's counters
  before and after, returns the delta alongside its results, and the
  parent folds the deltas back in (``DataplaneCounters.merge`` /
  ``HotpathCounters.merge``).
* **Synchronous in-process fallback.**  With ``workers<=1``, when the
  platform refuses to fork, or when a batch is too small to amortize
  the IPC, the call runs inline -- byte-for-byte the same results,
  just on the calling thread.  Callers never branch on pool presence.

The pool uses the ``fork`` start method: key objects and counter
modules are inherited cheaply, and nothing here depends on re-import
(``spawn``) semantics.  Platforms without ``fork`` get the inline
fallback automatically.
"""

from __future__ import annotations

import multiprocessing
import os
from dataclasses import dataclass, fields
from typing import Dict, List, Optional, Sequence, Tuple

from repro.metrics.dataplane import counters as dataplane_counters
from repro.metrics.hotpath import counters as hotpath_counters

Delta = Tuple[Dict[str, int], Dict[str, int]]


# ----------------------------------------------------------------------
# Worker-side task functions (module level: picklable under fork and
# spawn alike).  Each returns (results, (dataplane_delta, hotpath_delta)).
# ----------------------------------------------------------------------


def _counters_before() -> Tuple[Dict[str, int], Dict[str, int]]:
    return dataplane_counters.snapshot(), hotpath_counters.snapshot()


def _counters_delta(before: Tuple[Dict[str, int], Dict[str, int]]) -> Delta:
    dp_before, hp_before = before
    dp_after = dataplane_counters.snapshot()
    hp_after = hotpath_counters.snapshot()
    dp = {k: v - dp_before[k] for k, v in dp_after.items() if v != dp_before[k]}
    hp = {k: v - hp_before[k] for k, v in hp_after.items() if v != hp_before[k]}
    return dp, hp


def _task_encrypt_many(key, plaintexts, nonces, aad):
    before = _counters_before()
    out = key.encrypt_many(plaintexts, nonces, aad=aad)
    return out, _counters_delta(before)


def _task_seal_links(material, serial, aad, session_keys):
    before = _counters_before()
    out = [sk.encrypt(material, nonce=serial, aad=aad) for sk in session_keys]
    return out, _counters_delta(before)


def _task_sign_many(key, messages):
    before = _counters_before()
    out = [key.sign(m) for m in messages]
    return out, _counters_delta(before)


def _task_decrypt_many(key, ciphertexts):
    before = _counters_before()
    out = [key.decrypt(c) for c in ciphertexts]
    return out, _counters_delta(before)


@dataclass
class PoolStats:
    """Bookkeeping the pool exposes through ``Deployment.metrics``."""

    #: Worker processes actually running (0 = inline fallback).
    workers: int = 0
    #: Batches shipped to workers / items inside them.
    batches_offloaded: int = 0
    items_offloaded: int = 0
    #: Batches that ran inline (pool absent or batch under threshold).
    batches_inline: int = 0
    items_inline: int = 0
    #: Worker counter deltas folded back into the global registries.
    counter_merges: int = 0

    def snapshot(self) -> Dict[str, int]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


class CryptoPool:
    """Offload batch crypto to worker processes; fall back inline.

    Parameters
    ----------
    workers:
        Worker process count; ``None`` means ``os.cpu_count()``.
        ``workers <= 1`` skips process creation entirely -- every call
        runs inline.
    min_chunk:
        Smallest per-worker chunk worth the IPC; batches shorter than
        ``2 * min_chunk`` run inline.
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        min_chunk: int = 8,
        start_method: str = "fork",
    ) -> None:
        if workers is None:
            workers = os.cpu_count() or 1
        if min_chunk < 1:
            raise ValueError("min_chunk must be >= 1")
        self.workers = max(1, int(workers))
        self.min_chunk = min_chunk
        self.stats = PoolStats()
        self._pool = None
        if self.workers > 1:
            try:
                ctx = multiprocessing.get_context(start_method)
                self._pool = ctx.Pool(processes=self.workers)
                self.stats.workers = self.workers
            except (ValueError, OSError, ImportError):
                # No fork on this platform (or process limits): the
                # inline fallback serves every call instead.
                self._pool = None

    # -- lifecycle ---------------------------------------------------

    @property
    def pooled(self) -> bool:
        """True when worker processes are live."""
        return self._pool is not None

    def close(self) -> None:
        """Shut the workers down; the pool keeps working inline."""
        if self._pool is not None:
            self._pool.close()
            self._pool.join()
            self._pool = None
            self.stats.workers = 0

    def __enter__(self) -> "CryptoPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- internals ---------------------------------------------------

    def _chunk_ranges(self, n: int) -> List[Tuple[int, int]]:
        """Contiguous [start, end) ranges covering 0..n, ~2 per worker."""
        per = max(self.min_chunk, -(-n // (self.workers * 2)))
        return [(i, min(i + per, n)) for i in range(0, n, per)]

    def _merge(self, delta: Delta) -> None:
        dp, hp = delta
        if dp:
            dataplane_counters.merge(dp)
        if hp:
            hotpath_counters.merge(hp)
        self.stats.counter_merges += 1

    def _run_chunked(self, task, n: int, make_args) -> list:
        """Submit chunks, stitch results in submission order."""
        handles = [
            self._pool.apply_async(task, make_args(a, b))
            for a, b in self._chunk_ranges(n)
        ]
        out: list = []
        for handle in handles:
            chunk, delta = handle.get()
            out.extend(chunk)
            self._merge(delta)
        self.stats.batches_offloaded += 1
        self.stats.items_offloaded += n
        return out

    def _offload(self, n: int) -> bool:
        return self.pooled and n >= 2 * self.min_chunk

    # -- batch sealing -----------------------------------------------

    def encrypt_many(
        self,
        key,
        plaintexts: Sequence[bytes],
        nonces: Sequence[int],
        aad: bytes = b"",
    ) -> List[bytes]:
        """``SymmetricKey.encrypt_many`` across the workers.

        Validation -- length agreement, non-negative nonces, and the
        intra-batch duplicate-nonce check -- runs over the *full* batch
        before chunking: a duplicate split across two chunks would
        otherwise slip past the per-chunk checks.
        """
        if len(plaintexts) != len(nonces):
            raise ValueError(
                f"{len(plaintexts)} plaintexts but {len(nonces)} nonces"
            )
        if any(nonce < 0 for nonce in nonces):
            raise ValueError("nonce must be non-negative")
        if len(set(nonces)) != len(nonces):
            raise ValueError("duplicate nonce in batch (keystream reuse)")
        n = len(plaintexts)
        if not self._offload(n):
            self.stats.batches_inline += 1
            self.stats.items_inline += n
            return key.encrypt_many(plaintexts, nonces, aad=aad)
        return self._run_chunked(
            _task_encrypt_many,
            n,
            lambda a, b: (key, list(plaintexts[a:b]), list(nonces[a:b]), aad),
        )

    def seal_links(
        self, material: bytes, serial: int, aad: bytes, session_keys: Sequence
    ) -> List[bytes]:
        """The key fan-out's per-child sealing, chunked across workers.

        Raw arguments (material/serial/aad) rather than core types so
        the pool has no dependency on :mod:`repro.core`;
        ``reencrypt_key_for_links`` does the unpacking.
        """
        keys = list(session_keys)
        n = len(keys)
        if not self._offload(n):
            self.stats.batches_inline += 1
            self.stats.items_inline += n
            return [sk.encrypt(material, nonce=serial, aad=aad) for sk in keys]
        return self._run_chunked(
            _task_seal_links,
            n,
            lambda a, b: (material, serial, aad, keys[a:b]),
        )

    # -- RSA private operations --------------------------------------

    def sign_many(self, key, messages: Sequence[bytes]) -> List[bytes]:
        """Batch RSA signing under one private key."""
        msgs = list(messages)
        n = len(msgs)
        if not self._offload(n):
            self.stats.batches_inline += 1
            self.stats.items_inline += n
            return [key.sign(m) for m in msgs]
        return self._run_chunked(
            _task_sign_many, n, lambda a, b: (key, msgs[a:b])
        )

    def decrypt_many(self, key, ciphertexts: Sequence[bytes]) -> List[bytes]:
        """Batch RSA decryption under one private key."""
        blobs = list(ciphertexts)
        n = len(blobs)
        if not self._offload(n):
            self.stats.batches_inline += 1
            self.stats.items_inline += n
            return [key.decrypt(c) for c in blobs]
        return self._run_chunked(
            _task_decrypt_many, n, lambda a, b: (key, blobs[a:b])
        )
