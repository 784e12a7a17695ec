"""Highest-fidelity storm: real protocol messages under virtual time.

A flash crowd of AsyncClients performs the *functional* login protocol
(genuine RSA, genuine attestation) as messages over the virtual WAN
against a queued User Manager farm.  The emergent LOGIN round
latencies combine one-way delays, farm queueing, and measured client
compute -- the message-level counterpart of the Fig. 5 timing model,
and a cross-check on ablation A1's farm-scaling claim.
"""

import random
import time

from repro.crypto.drbg import HmacDrbg
from repro.deployment import Deployment
from repro.metrics.stats import median, percentile
from repro.sim.driver import AsyncClient, wire_user_manager
from repro.sim.engine import Simulator
from repro.sim.network import LatencyModel, RegionRtt
from repro.sim.rpc import VirtualNetwork
from repro.sim.station import ServiceStation

CROWD = 40
RTT = 0.1


def run_storm(n_servers: int):
    deployment = Deployment(seed=61)
    deployment.add_free_channel("storm", regions=["CH"])
    sim = Simulator()
    latency = LatencyModel(
        random.Random(7),
        table={("CH", "dc"): RegionRtt(base_rtt=RTT, sigma=0.05, slow_path_prob=0.0)},
    )
    network = VirtualNetwork(sim, latency, random.Random(8))
    station = ServiceStation(
        sim, n_servers=n_servers, mean_service_time=0.02, rng=random.Random(9)
    )
    wire_user_manager(
        network, deployment.user_managers["domain-0"], "rpc://um", station=station
    )
    clients = []
    for i in range(CROWD):
        email = f"storm{i}@example.org"
        deployment.accounts.register(email, "pw")
        clients.append(
            AsyncClient(
                network=network, email=email, password="pw",
                version=deployment.client_version, image=deployment.client_image,
                net_addr=deployment.geo.random_address("CH", deployment.rng),
                region="CH", drbg=HmacDrbg(email.encode()),
            )
        )
    done = []
    arrival_rng = random.Random(10)
    for client in clients:
        offset = arrival_rng.expovariate(3.0 / 2.0)  # ~2 s crowd window
        sim.schedule(
            offset,
            lambda s, c=client: c.start_login("rpc://um", on_done=lambda: done.append(s.now)),
        )
    sim.run()
    latencies = [
        lat for c in clients for lat in c.collector.latencies("LOGIN2")
    ]
    return len(done), latencies


def build_packet_storm(n_viewers: int = 16):
    """A connected overlay ready for a data-plane storm.

    Setup (logins, SWITCH rounds, joins) happens outside the timed
    region -- the storm itself is pure data plane: seal at the source,
    forward down the tree, open at every peer.
    """
    deployment = Deployment(seed=62)
    deployment.add_free_channel("packet-storm", regions=["CH"])
    overlay = deployment.overlay("packet-storm")
    peers = []
    for i in range(n_viewers):
        client = deployment.create_client(
            f"pkt{i}@example.org", "pw", region="CH"
        )
        client.login(now=1.0)
        peers.append(deployment.watch(client, "packet-storm", now=1.0, capacity=4))
    return deployment, overlay, peers


def run_packet_storm(overlay, n_packets: int) -> float:
    """Broadcast ``n_packets`` 4 kB frames; returns elapsed seconds."""
    start = time.perf_counter()
    for _ in range(n_packets):
        overlay.source.broadcast_packet(2.0)
    return time.perf_counter() - start


def test_bench_rpc_packet_storm():
    """End-to-end data plane on one overlay: every frame reaches every
    viewer."""
    n_packets = 120
    deployment, overlay, peers = build_packet_storm()
    baseline_decrypted = peers[0].client.packets_decrypted

    elapsed = min(run_packet_storm(overlay, n_packets) for _ in range(2))
    for peer in peers:
        assert peer.client.packets_decrypted - baseline_decrypted == 2 * n_packets
    print(
        f"\nPacket storm ({n_packets} x 4 kB frames, {len(peers)} viewers): "
        f"{elapsed * 1000:.0f} ms"
    )


def test_bench_rpc_login_storm(benchmark):
    completed, latencies = benchmark.pedantic(
        lambda: run_storm(n_servers=2), rounds=1, iterations=1
    )
    assert completed == CROWD
    assert median(latencies) < 1.0  # WAN + modest queueing
    # Cross-check the farm-scaling claim at message level: one server
    # under the same crowd queues measurably worse at the tail.
    _, single = run_storm(n_servers=1)
    assert percentile(single, 95) >= percentile(latencies, 95)
    print(
        f"\nRPC storm ({CROWD} logins, 2-server farm): median LOGIN2 "
        f"{median(latencies) * 1000:.0f} ms, p95 {percentile(latencies, 95) * 1000:.0f} ms; "
        f"1-server p95 {percentile(single, 95) * 1000:.0f} ms"
    )
