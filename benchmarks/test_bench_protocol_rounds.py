"""Fig. 4: per-round cost of the real protocol handlers.

Benchmarks the actual functional implementation of each measured round
(the same handlers the calibration module times) and verifies the
protocol's round structure: login = 2 exchanges, switch = 2 exchanges,
join = 1 exchange.  These measured costs are what ground the week-long
simulation's service times (DESIGN.md substitution table).  Also home
to the tracing layer's acceptance bar: spans on the SWITCH2 hot path
cost < 5% throughput.
"""

import time

import pytest

from repro.core.challenge import answer_challenge
from repro.core.protocol import JoinRequest, Login1Request, Switch1Request, Switch2Request
from repro.deployment import Deployment


@pytest.fixture(scope="module")
def env():
    deployment = Deployment(seed=3)
    deployment.add_free_channel("bench", regions=["CH"])
    client = deployment.create_client("bench@example.org", "pw", region="CH")
    client.login(now=0.0)
    response = client.switch_channel("bench", now=0.0)
    peer = deployment.make_peer(client, "bench", capacity=10**9)
    deployment.overlay("bench").join(peer, response.peers, now=0.0)
    return deployment, client, peer


def test_bench_round_login1(benchmark, env):
    deployment, client, _ = env
    manager = deployment.user_managers["domain-0"]
    request = Login1Request(email=client.email, client_public_key=client.public_key)
    benchmark(lambda: manager.login1(request, 0.0))


def test_bench_round_full_login_two_exchanges(benchmark, env):
    deployment, client, _ = env
    benchmark(lambda: client.login(now=0.0))


def test_bench_round_switch1(benchmark, env):
    deployment, client, _ = env
    manager = deployment.channel_manager_for("bench")
    request = Switch1Request(user_ticket=client.user_ticket, channel_id="bench")
    benchmark(lambda: manager.switch1(request, 0.0))


def test_bench_round_switch2(benchmark, env):
    deployment, client, _ = env
    manager = deployment.channel_manager_for("bench")
    request1 = Switch1Request(user_ticket=client.user_ticket, channel_id="bench")

    def run():
        token = manager.switch1(request1, 0.0).token
        signature = answer_challenge(token, client.private_key)
        return manager.switch2(
            Switch2Request(
                user_ticket=client.user_ticket,
                token=token,
                signature=signature,
                channel_id="bench",
            ),
            observed_addr=client.net_addr,
            now=0.0,
        )

    response = benchmark(run)
    assert response.ticket.channel_id == "bench"


def test_bench_round_join(benchmark, env):
    deployment, client, peer = env
    request = JoinRequest(channel_ticket=client.channel_ticket)

    def run():
        return peer.handle_join(request, observed_addr=client.net_addr, now=0.0)

    from repro.core.protocol import JoinAccept

    result = benchmark(run)
    assert isinstance(result, JoinAccept)


def _ops_per_second(fn, iters: int = 300, repeats: int = 3) -> float:
    """Best-of-N throughput of ``fn`` (best run suppresses scheduler noise)."""
    fn()  # warmup
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(iters):
            fn()
        best = min(best, time.perf_counter() - start)
    return iters / best


def _switch2_loop(manager, client, now: float):
    """One SWITCH2 issuance closure against ``manager``.

    The SWITCH1 token is minted once: challenge tokens are stateless
    MAC'd blobs valid for their whole max-age, so reusing one isolates
    the SWITCH2 handler -- the round whose throughput caps a farm.
    """
    token = manager.switch1(
        Switch1Request(user_ticket=client.user_ticket, channel_id="bench"), now
    ).token
    signature = answer_challenge(token, client.private_key)
    request = Switch2Request(
        user_ticket=client.user_ticket,
        token=token,
        signature=signature,
        channel_id="bench",
    )
    return lambda: manager.switch2(request, observed_addr=client.net_addr, now=now)


def test_bench_tracing_overhead_under_five_percent(env):
    """The acceptance bar for the tracing layer: spans on the SWITCH2
    hot path cost < 5% throughput.  RSA dominates each issuance, so a
    handful of dict writes per request must disappear in the noise."""
    from repro.trace.span import Tracer

    deployment, client, _ = env
    hot_cm = deployment.channel_manager_for("bench")
    run = _switch2_loop(hot_cm, client, now=0.0)
    untraced = _ops_per_second(run)
    tracer = Tracer(max_spans=10_000_000)
    hot_cm.tracer = tracer
    try:
        traced = _ops_per_second(run)
    finally:
        hot_cm.tracer = None
    assert tracer.spans, "traced run recorded no spans"
    overhead = 1.0 - traced / untraced
    assert traced >= 0.95 * untraced, (
        f"tracing overhead {overhead:.1%} (untraced {untraced:.0f} ops/s, "
        f"traced {traced:.0f} ops/s)"
    )
