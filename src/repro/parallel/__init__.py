"""Multi-core execution: process-pool crypto plane + sharded storm driver.

Everything else in the repository runs on one Python thread; this
package is where the hardware becomes the limit.  Two independent
pieces:

* :mod:`repro.parallel.pool` -- a :class:`~repro.parallel.pool.CryptoPool`
  offloading batch sealing and batched RSA private operations to
  worker processes, with chunked submission, ordered result stitching,
  and a counter snapshot-and-merge protocol so offloaded work stays
  visible in ``Deployment.metrics``.  Wired into servers, sources and
  peers by ``Deployment.enable_multicore(workers=N)``.
* :mod:`repro.parallel.shardstorm` / :mod:`repro.parallel.driver` -- a
  sharded switch storm whose shards (independent farm + overlay
  regions, each with its own event loop) run on worker processes under
  conservative virtual-time synchronization: cross-shard RPCs cross a
  bridge at the typed-transport layer, and the window width never
  exceeds the inter-shard latency, so no message ever arrives in a
  worker's past.  The sequential and parallel runners execute the
  identical per-shard code and produce byte-identical transcripts.
"""

from repro.parallel.pool import CryptoPool, PoolStats
from repro.parallel.shardstorm import ShardRig, ShardStormConfig
from repro.parallel.driver import StormOutcome, run_sharded_storm

__all__ = [
    "CryptoPool",
    "PoolStats",
    "ShardRig",
    "ShardStormConfig",
    "StormOutcome",
    "run_sharded_storm",
]
