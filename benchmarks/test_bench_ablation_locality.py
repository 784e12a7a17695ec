"""Ablation A6: ranked (locality-aware) vs uniform peer selection.

The Channel Manager's peer list is the only lever the infrastructure
has over overlay topology.  This bench populates one channel with
viewers across two regions and compares the uniform baseline sampler
against the deployment's default
:class:`~repro.p2p.selection.RankedPeerListProvider`: the locality
fraction of returned lists, and the implied expected join RTT under
the simulator's same-/cross-region path model.
"""

import random

from repro.deployment import Deployment
from repro.metrics.reporting import format_table
from repro.sim.network import peer_rtt


def _populate(seed=33, per_region=8):
    deployment = Deployment(seed=seed, source_capacity=64)
    deployment.add_free_channel("intl", regions=["CH", "DE"])
    for region in ("CH", "DE"):
        for i in range(per_region):
            client = deployment.create_client(
                f"{region.lower()}{i}@example.org", "pw", region=region
            )
            client.login(now=0.0)
            deployment.watch(client, "intl", now=0.0, capacity=8)
    return deployment


def _mean_locality(sampler, deployment, rng, samples=40):
    total = n = 0.0
    for _ in range(int(samples)):
        addr = deployment.geo.random_address("CH", rng)
        result = sampler("intl", addr, 6)
        if not result:
            continue
        non_source = [d for d in result if not d.peer_id.startswith("source")]
        if not non_source:
            continue
        local = sum(1 for d in non_source if d.region == "CH")
        total += local / len(non_source)
        n += 1
    return total / max(1, n)


def test_bench_ablation_peer_locality(benchmark):
    deployment = _populate()
    rng = random.Random(101)
    uniform = deployment.overlays["intl"].sample_peers
    aware = deployment.ranked_provider

    def measure():
        return (
            _mean_locality(uniform, deployment, random.Random(1)),
            _mean_locality(aware, deployment, random.Random(1)),
        )

    uniform_locality, aware_locality = benchmark.pedantic(measure, rounds=1, iterations=1)
    assert aware_locality > uniform_locality

    # Expected first-attempt join RTT under the path model.
    rtt_rng = random.Random(5)
    same = sum(peer_rtt(rtt_rng, True) for _ in range(3000)) / 3000
    cross = sum(peer_rtt(rtt_rng, False) for _ in range(3000)) / 3000

    def expected_rtt(locality):
        return locality * same + (1 - locality) * cross

    rows = [
        ("uniform", f"{uniform_locality:.2f}", f"{expected_rtt(uniform_locality) * 1000:.0f}"),
        ("ranked", f"{aware_locality:.2f}", f"{expected_rtt(aware_locality) * 1000:.0f}"),
    ]
    print("\nA6 — peer selection locality (CH requester, CH/DE audience)")
    print(format_table(["sampler", "same-region fraction", "expected join RTT (ms)"], rows))
    assert expected_rtt(aware_locality) < expected_rtt(uniform_locality)
