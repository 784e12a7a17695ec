"""The fixed client-compute cost table: deterministic charging."""

import random
import time

import pytest

from repro.crypto.drbg import HmacDrbg
from repro.deployment import Deployment
from repro.errors import SimulationError
from repro.sim.costs import (
    DEFAULT_COSTS,
    OP_CHALLENGE_SIGN,
    OP_JOIN_DECRYPT,
    OP_LOGIN_BLOB,
)
from repro.sim.driver import AsyncClient
from repro.sim.engine import Simulator
from repro.sim.network import LatencyModel
from repro.sim.rpc import VirtualNetwork


@pytest.fixture
def client():
    deployment = Deployment(seed=3)
    sim = Simulator()
    network = VirtualNetwork(sim, LatencyModel(random.Random(1)), random.Random(2))
    return AsyncClient(
        network=network,
        email="cost@example.org",
        password="pw",
        version=deployment.client_version,
        image=deployment.client_image,
        net_addr="1.2.3.4",
        region="CH",
        drbg=HmacDrbg(b"cost", b"client"),
    )


def charged(client, op, fn=lambda: None):
    """Virtual seconds between ``_charge_compute`` and its continuation."""
    sim = client._network.sim
    start = sim.now
    fired = []
    client._charge_compute(op, fn, lambda: fired.append(sim.now))
    sim.run()
    return fired[0] - start


class TestFixedCostModel:
    def test_charge_ignores_measured_duration(self, client):
        # Wildly different wall-clock durations, identical charges:
        # this is the property that makes transcripts reproducible.
        assert charged(client, OP_CHALLENGE_SIGN) == pytest.approx(
            charged(client, OP_CHALLENGE_SIGN, lambda: time.sleep(0.02))
        )

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
    def test_async_client_defaults_to_fixed_model(self, client):
        for op in DEFAULT_COSTS:
            assert charged(client, op) == pytest.approx(DEFAULT_COSTS[op])

    def test_same_seed_same_event_times(self):
        # End-to-end: two traced storms with one seed agree on every
        # span timestamp -- the symptom the wall-clock charging bug
        # used to produce is exactly a mismatch here.
        from repro.trace.span import Tracer
        from repro.trace.storm import run_switch_storm

        times = []
        for _ in range(2):
            result = run_switch_storm(clients=2, seed=5, horizon=60.0,
                                      tracer=Tracer())
            assert not result.errors
            times.append([(s.name, s.start, s.end) for s in result.tracer.spans])
        assert times[0] == times[1]
