"""The managers' side of durability, written once.

A journaled state machine supplies its schema -- ``_snapshot_state()``,
``_restore_state(state)`` and ``_apply_record(rec_type, body)`` -- and
inherits how a :class:`~repro.store.store.DurableStore` is attached,
appended to, compacted and replayed.
"""

from __future__ import annotations

import time
from typing import Optional


class Journaled:
    """Mixin: attach a store, journal mutations, recover by replay."""

    _store = None
    _snapshot_every: Optional[int] = None
    _records_since_snapshot = 0

    def attach_store(self, store, snapshot_every: Optional[int] = None,
                     now: float = 0.0) -> None:
        """Journal every mutation to ``store`` from here on.

        An initial snapshot of the current in-memory state is taken
        immediately, so a store attached to a warm manager is complete
        from the first byte.  ``snapshot_every`` enables automatic
        compaction: after that many appended records the WAL is folded
        into a fresh snapshot.
        """
        self._store = store
        self._snapshot_every = snapshot_every
        self._records_since_snapshot = 0
        store.write_snapshot(self._snapshot_state(), taken_at=now)

    def _journal(self, rec_type: int, body: bytes) -> None:
        """Append one record.  A no-op without a store -- hot paths
        guard the *encoding* themselves -- which is also why replay
        cannot journal: ``recover`` adopts the store only afterwards."""
        if self._store is None:
            return
        self._store.append(rec_type, body)
        self._records_since_snapshot += 1
        if (
            self._snapshot_every is not None
            and self._records_since_snapshot >= self._snapshot_every
        ):
            self._store.write_snapshot(self._snapshot_state())
            self._records_since_snapshot = 0

    @classmethod
    def recover(cls, store, *, snapshot_every: Optional[int] = None, **init):
        """Rebuild ``cls(**init)`` from snapshot + WAL replay.

        Everything that is not state -- key material, farm secrets,
        lifetimes -- is passed back in as ``init``, exactly as to the
        constructor: secrets live in the deployment's key management
        (the moral equivalent of an HSM), never in the store.
        """
        started = time.perf_counter()
        manager = cls(**init)
        state = store.load()
        if state.snapshot is not None:
            manager._restore_state(state.snapshot.state)
        for record in state.records:
            manager._apply_record(record.rec_type, record.body)
        manager._store = store
        manager._snapshot_every = snapshot_every
        manager._records_since_snapshot = len(state.records)
        store.stats.note_recovery(len(state.records), time.perf_counter() - started)
        return manager
