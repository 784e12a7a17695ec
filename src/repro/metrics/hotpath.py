"""Hot-path instrumentation: crypto and cache counters.

The ticket pipeline's latency budget is dominated by a handful of
operations -- RSA private-key exponentiations, User Ticket signature
verifications, and policy evaluations -- each of which PR 2 gave a
fast path (CRT signing, the ticket verification cache, the compiled
policy index).  This module counts both the slow and the fast
executions so benchmarks and operators can verify the fast paths are
actually being taken.

The module deliberately imports nothing from ``repro.core`` or
``repro.crypto`` so the crypto layer can import it
without a cycle.  Counters are plain integers on a process-global
instance: the simulator is single-threaded and the real system would
shard these per worker.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.metrics.counters import CounterBlock


@dataclass
class HotpathCounters(CounterBlock):
    """Process-wide counters for the ticket pipeline's hot paths."""

    #: RSA private-key operations (signing + decryption), total.
    rsa_private_ops: int = 0
    #: Subset of :attr:`rsa_private_ops` that took the CRT fast path.
    rsa_crt_ops: int = 0
    #: RSA public-key signature verifications actually performed.
    rsa_verifies: int = 0
    #: Ticket signature checks answered from the verification cache.
    ticket_cache_hits: int = 0
    #: Ticket signature checks that had to do the full RSA verify.
    ticket_cache_misses: int = 0
    #: Compiled policy indexes built (one per record version).
    policy_index_builds: int = 0
    #: Policy evaluations served through a compiled index.
    policy_index_evals: int = 0

    @property
    def ticket_cache_hit_rate(self) -> float:
        """Hits / (hits + misses); 0.0 when nothing was looked up."""
        total = self.ticket_cache_hits + self.ticket_cache_misses
        return self.ticket_cache_hits / total if total else 0.0


#: The process-global counter instance the library increments.
counters = HotpathCounters()
