"""Durability counters: WAL growth, snapshot cadence, recovery speed.

The store subsystem feeds these; experiment harnesses and the
``repro store`` CLI read them.  Everything is a plain counter or
gauge -- no sampling -- because durability questions ("how big did the
log get before compaction?", "how fast does replay run?") are exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass
class StoreStats:
    """Counters for one :class:`~repro.store.DurableStore`."""

    records_appended: int = 0
    bytes_appended: int = 0
    snapshots_written: int = 0
    snapshot_bytes: int = 0
    #: Set by the most recent recovery, if any.
    records_replayed: int = 0
    recovery_seconds: Optional[float] = None
    torn_tails_truncated: int = 0

    @property
    def replay_records_per_sec(self) -> Optional[float]:
        """WAL replay throughput of the last recovery."""
        if self.recovery_seconds is None or self.recovery_seconds <= 0:
            return None
        return self.records_replayed / self.recovery_seconds

    def note_append(self, nbytes: int) -> None:
        self.records_appended += 1
        self.bytes_appended += nbytes

    def note_snapshot(self, nbytes: int) -> None:
        self.snapshots_written += 1
        self.snapshot_bytes = nbytes

    def note_recovery(self, records: int, seconds: float) -> None:
        self.records_replayed = records
        self.recovery_seconds = seconds

