"""Durable state: write-ahead log, snapshots, pluggable backends.

The paper's deployment (Zattoo: 3M registered accounts, 60k concurrent
viewers) takes for granted that the User Manager's UserDB, the Channel
Manager's viewing activity log, and the Channel Policy Manager's
channel/attribute lists survive a process restart -- the
one-viewing-location-per-account rule and utime-based policy
propagation are only meaningful if manager state is durable.  This
package supplies that layer:

* :mod:`repro.store.backend` -- byte storage (:class:`MemoryBackend`
  for tests and simulation, :class:`FileBackend` for real files);
* :mod:`repro.store.wal` -- CRC-framed append-only records with a
  deterministic torn-tail recovery rule;
* :mod:`repro.store.snapshot` -- atomic full-state images with a WAL
  watermark;
* :mod:`repro.store.store` -- :class:`DurableStore`, the
  snapshot+log facade the managers journal through;
* :mod:`repro.store.journal` -- :class:`Journaled`, the managers' half
  of that contract, written once.

Managers integrate via ``attach_store(...)`` (journal every mutation)
and ``recover(store, ...)`` (rebuild identical in-memory state from
snapshot + replay), both inherited from :class:`Journaled`; see the
manager modules and DESIGN.md's "Durability & recovery" section.
"""

from repro.store.backend import FileBackend, MemoryBackend, StoreBackend, StoreError
from repro.store.journal import Journaled
from repro.store.snapshot import Snapshot, SnapshotError
from repro.store.store import DurableStore, RecoveredState, StoreReport
from repro.store.wal import WalError, WalRecord, WalScan, scan

__all__ = [
    "DurableStore",
    "FileBackend",
    "Journaled",
    "MemoryBackend",
    "RecoveredState",
    "Snapshot",
    "SnapshotError",
    "StoreBackend",
    "StoreError",
    "StoreReport",
    "WalError",
    "WalRecord",
    "WalScan",
    "scan",
]
