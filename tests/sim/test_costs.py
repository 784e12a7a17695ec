"""The fixed client-compute cost table: deterministic charging."""

import random
import time

import pytest

from repro.crypto.drbg import HmacDrbg
from repro.crypto.rsa import RsaPrivateKey
from repro.deployment import Deployment
from repro.errors import SimulationError
from repro.sim.costs import (
    DEFAULT_COSTS,
    OP_CHALLENGE_SIGN,
    OP_JOIN_DECRYPT,
    OP_LOGIN_BLOB,
)
from repro.sim.driver import (
    AsyncClient,
    wire_channel_manager,
    wire_peer,
    wire_user_manager,
)
from repro.sim.engine import Simulator
from repro.sim.network import LatencyModel
from repro.sim.rpc import VirtualNetwork
from repro.trace.span import Tracer


@pytest.fixture
def client():
    deployment = Deployment(seed=3)
    sim = Simulator()
    network = VirtualNetwork(sim, LatencyModel(random.Random(1)), random.Random(2))
    return make_client(deployment, network)


def make_client(deployment, network, tracer=None):
    return AsyncClient(
        network=network,
        email="cost@example.org",
        password="pw",
        version=deployment.client_version,
        image=deployment.client_image,
        net_addr=deployment.geo.random_address("CH", deployment.rng),
        region="CH",
        drbg=HmacDrbg(b"cost", b"client"),
        tracer=tracer,
    )


def charged(monkeypatch, slow=False):
    """Virtual seconds charged per ``OP_*`` name over one traced
    login -> switch -> join: the gap between a round's reply and the
    next message leaving (after JOIN: ``on_done`` firing)."""
    if slow:
        for name in ("sign", "decrypt"):
            fast = getattr(RsaPrivateKey, name)

            def slowed(self, data, fast=fast):
                time.sleep(0.02)
                return fast(self, data)

            monkeypatch.setattr(RsaPrivateKey, name, slowed)
    deployment = Deployment(seed=3)
    deployment.add_free_channel("cost", regions=["CH"])
    seeder = deployment.create_client("seed@example.org", "pw", region="CH")
    seeder.login(now=0.0)
    network = VirtualNetwork(
        Simulator(), LatencyModel(random.Random(1)), random.Random(2)
    )
    wire_user_manager(network, deployment.user_managers["domain-0"], "rpc://um")
    wire_channel_manager(network, deployment.channel_manager_for("cost"), "rpc://cm")
    wire_peer(network, deployment.watch(seeder, "cost", now=0.0, capacity=4), "rpc://peer")
    deployment.accounts.register("cost@example.org", "pw")
    tracer = Tracer()
    client = make_client(deployment, network, tracer)
    joined = []
    client.start_login("rpc://um", on_done=lambda: client.start_switch(
        "rpc://cm", "cost", on_done=lambda _response: client.start_join(
            "rpc://peer", on_done=joined.append)))
    network.sim.run()
    assert joined, client.errors
    span = {s.name: s for s in tracer.spans if s.kind in ("op", "round")}
    return {
        OP_LOGIN_BLOB: span["LOGIN2"].start - span["LOGIN1"].end,
        OP_CHALLENGE_SIGN: span["SWITCH2"].start - span["SWITCH1"].end,
        OP_JOIN_DECRYPT: span["JOIN"].end - span["JOIN1"].end,
    }


class TestFixedCostModel:
    def test_charge_ignores_measured_duration(self, monkeypatch):
        # Wildly different wall-clock durations, identical charges:
        # this is the property that makes transcripts reproducible.
        fast = charged(monkeypatch)
        assert charged(monkeypatch, slow=True) == pytest.approx(fast)

    def test_table_costs(self):
        # The table prices exactly the operations the driver charges.
        assert set(DEFAULT_COSTS) == {OP_LOGIN_BLOB, OP_CHALLENGE_SIGN, OP_JOIN_DECRYPT}

    def test_negative_costs_rejected(self, client):
        # A negative entry could only surface as a negative delay,
        # which the engine refuses to schedule.
        assert all(cost >= 0 for cost in DEFAULT_COSTS.values())
        with pytest.raises(SimulationError):
            client._network.sim.schedule(-0.001, lambda sim: None)


class TestDriverUsesDeterministicCosts:
    def test_async_client_defaults_to_fixed_model(self, monkeypatch):
        assert charged(monkeypatch) == pytest.approx(DEFAULT_COSTS)

    def test_same_seed_same_event_times(self):
        # End-to-end: two traced storms with one seed agree on every
        # span timestamp -- the symptom the wall-clock charging bug
        # used to produce is exactly a mismatch here.
        from repro.trace.storm import run_switch_storm

        times = []
        for _ in range(2):
            result = run_switch_storm(clients=2, seed=5, horizon=60.0,
                                      tracer=Tracer())
            assert not result.errors
            times.append([(s.name, s.start, s.end) for s in result.tracer.spans])
        assert times[0] == times[1]
