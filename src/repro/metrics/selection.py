"""Peer-selection cost instrumentation.

PR 8's ranked SWITCH2 pipeline decides *which* parents a joiner sees;
this block counts *what that decision cost*.  The interesting ratio is
``candidates_considered / requests``: the O(n) scan reference examines
every eligible member per request (the ratio grows with the overlay),
while the incremental :class:`~repro.p2p.index.CandidateIndex` pops a
near-constant handful from its bucket heaps.  The flash-crowd storm
surfaces these counters next to the JOIN_E2E latency report, and
``tests/p2p/test_index.py`` asserts the indexed ratio stays flat as
the overlay grows.

Like :mod:`repro.metrics.hotpath`, the module is dependency-free so
the overlay layer can import it without a cycle, and the counters live
on a process-global instance.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.metrics.counters import CounterBlock


@dataclass
class SelectionCounters(CounterBlock):
    """Process-wide counters for the peer-selection plane."""

    #: Peer-list/repair selections served by the ranked provider.
    requests: int = 0
    #: Subset of :attr:`requests` answered from the candidate index.
    index_hits: int = 0
    #: Candidates examined across all requests (index: validated heap
    #: pops per request; the scan oracle: every eligible member).
    candidates_considered: int = 0
    #: Lazily-deleted heap tuples discarded during index draws.
    stale_entries_skipped: int = 0
    #: Membership events the index absorbed (register/remove/capacity/
    #: depth/admissibility updates published by the overlay).
    index_events: int = 0
    #: Bucket-heap compactions (a heap outgrew its live membership and
    #: was rebuilt from the bucket's member set).
    rebuilds: int = 0
    #: ``CandidateIndex.verify_against`` self-checks executed.
    verify_checks: int = 0

    @property
    def candidates_per_request(self) -> float:
        """Mean candidates examined per selection (0.0 when idle)."""
        return self.candidates_considered / self.requests if self.requests else 0.0


#: The process-global counter instance the library increments.
counters = SelectionCounters()
