"""Client-compute cost table for the event-driven driver.

The async driver charges virtual time for client-side work (blob
decryption, challenge signing, session-key decryption) before the next
protocol message leaves.  The charge comes from this deterministic
per-operation table, never the measured wall clock: measured durations
would make two runs with the same seed schedule their follow-up events
at slightly different times, so event orderings, trace timings, and
emergent latencies would disagree run-to-run and between machines.
"""

from __future__ import annotations

from typing import Dict

# The operation names belong to the protocol scripts (``core`` must not
# import ``sim``); they are re-exported here, next to their prices.
from repro.core.exchange import OP_CHALLENGE_SIGN, OP_JOIN_DECRYPT, OP_LOGIN_BLOB

#: Deterministic defaults, in seconds.  Chosen near the measured means
#: for 512-bit keys on commodity hardware: the login blob work is one
#: symmetric decrypt + an image checksum + one RSA signature; the
#: others are a single RSA private operation each.  WAN RTTs (~0.1 s)
#: dominate every round, so moderate inaccuracy here moves emergent
#: latencies by well under the network jitter.
DEFAULT_COSTS: Dict[str, float] = {
    OP_LOGIN_BLOB: 0.004,
    OP_CHALLENGE_SIGN: 0.003,
    OP_JOIN_DECRYPT: 0.003,
}
