"""Multi-core execution: the sharded storm driver.

Everything else in the repository runs on one Python thread; this
package is where the hardware becomes the limit.

:mod:`repro.parallel.shardstorm` / :mod:`repro.parallel.driver` -- a
sharded switch storm whose shards (independent farm + overlay regions,
each with its own event loop) run on worker processes under
conservative virtual-time synchronization: cross-shard RPCs cross a
bridge at the typed-transport layer, and the window width never
exceeds the inter-shard latency, so no message ever arrives in a
worker's past.  The sequential and parallel runners execute the
identical per-shard code and produce byte-identical transcripts.
"""

from repro.parallel.shardstorm import ShardRig, ShardStormConfig
from repro.parallel.driver import StormOutcome, run_sharded_storm

__all__ = [
    "ShardRig",
    "ShardStormConfig",
    "StormOutcome",
    "run_sharded_storm",
]
