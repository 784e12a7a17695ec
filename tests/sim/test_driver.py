"""Virtual-time integration: the functional protocols as messages.

Runs the real login/switch/join flows -- genuine RSA, genuine policy
evaluation -- as chained RPC messages under the event engine, and
checks that the emergent round latencies decompose as RTT + queueing +
client compute.
"""

import gc
import random

import pytest

from repro.core import exchange
from repro.core.accounts import secure_hash_password
from repro.core.protocol import JoinAccept, Login1Response
from repro.crypto.stream import SymmetricKey
from repro.deployment import Deployment
from repro.errors import CapacityError, DecryptionError, ProtocolError
from repro.resilience.client import ResilientAsyncClient
from repro.sim.driver import (
    AsyncClient,
    wire_channel_manager,
    wire_peer,
    wire_user_manager,
)
from repro.sim.engine import Simulator
from repro.sim.network import LatencyModel, RegionRtt
from repro.sim.rpc import VirtualNetwork
from repro.trace.span import Tracer
from repro.util.wire import WireError
from repro.crypto.drbg import HmacDrbg


RTT = 0.1


@pytest.fixture
def rig():
    """A deployment whose managers are reachable over the virtual net."""
    deployment = Deployment(seed=31)
    deployment.add_free_channel("vt", regions=["CH"])
    sim = Simulator()
    latency = LatencyModel(
        random.Random(5),
        table={("CH", "dc"): RegionRtt(base_rtt=RTT, sigma=0.0001, slow_path_prob=0.0)},
    )
    network = VirtualNetwork(sim, latency, random.Random(6))
    wire_user_manager(network, deployment.user_managers["domain-0"], "rpc://um")
    wire_channel_manager(network, deployment.channel_manager_for("vt"), "rpc://cm")
    return deployment, sim, network


def make_async_client(
    deployment, network, email="vt@example.org", password="pw", cls=AsyncClient, **extra
):
    if not deployment.accounts.exists(email):
        deployment.accounts.register(email, "pw")
    extra.setdefault("net_addr", deployment.geo.random_address("CH", deployment.rng))
    return cls(
        network=network,
        email=email,
        password=password,
        version=deployment.client_version,
        image=deployment.client_image,
        region="CH",
        drbg=HmacDrbg(email.encode()),
        **extra,
    )


class TestAsyncLogin:
    def test_login_completes_with_verified_ticket(self, rig):
        deployment, sim, network = rig
        client = make_async_client(deployment, network)
        done = []
        client.start_login("rpc://um", on_done=lambda: done.append(sim.now))
        sim.run()
        assert done
        assert client.user_ticket is not None
        client.user_ticket.verify(
            deployment.user_managers["domain-0"].public_key, now=sim.now
        )
        assert not client.errors

    def test_round_latencies_are_rtt_plus_compute(self, rig):
        deployment, sim, network = rig
        client = make_async_client(deployment, network)
        client.start_login("rpc://um", on_done=lambda: None)
        sim.run()
        login1 = client.collector.latencies("LOGIN1")[0]
        login2 = client.collector.latencies("LOGIN2")[0]
        # Each round costs at least one full RTT and stays well under
        # RTT + a generous compute budget.
        assert RTT * 0.99 < login1 < RTT + 0.5
        assert RTT * 0.99 < login2 < RTT + 0.5

    def test_wrong_password_fails_in_virtual_time(self, rig):
        deployment, sim, network = rig
        tracer = Tracer()
        typo = make_async_client(
            deployment, network, "bad@example.org", password="wrong", tracer=tracer
        )
        other = make_async_client(deployment, network, tracer=tracer)
        failures, done = [], []
        # Blob decryption fails client-side, inside the LOGIN1 reply
        # handler.  That is this viewer's failure: it goes to on_fail,
        # and everybody else's storm carries on.
        typo.start_login("rpc://um", on_done=lambda: pytest.fail("logged in!"),
                         on_fail=failures.append)
        other.start_login("rpc://um", on_done=lambda: done.append(sim.now))
        sim.run()
        assert [type(exc) for exc in failures] == [DecryptionError]
        assert typo.errors == failures and typo.user_ticket is None
        assert done and other.user_ticket is not None
        assert all(span.end is not None for span in tracer.spans)
        failed = {
            s.name for s in tracer.spans if s.annotations.get("error") == "DecryptionError"
        }
        assert failed == {"LOGIN", "LOGIN1"}

    def test_wrong_password_is_not_retried(self, rig):
        deployment, sim, network = rig
        client = make_async_client(
            deployment, network, password="wrong", cls=ResilientAsyncClient,
            um_addresses=["rpc://um"], cm_addresses=["rpc://cm"],
        )
        failures = []
        client.start_resilient_login(
            on_done=lambda: pytest.fail("logged in!"), on_fail=failures.append
        )
        sim.run()
        assert [type(exc) for exc in failures] == [DecryptionError]
        assert client.retries == 0 and client.giveups == 0

    def test_trailing_bytes_in_the_login_blob_reach_on_fail(self, rig):
        deployment, sim, network = rig
        client = make_async_client(deployment, network)
        blob_key = SymmetricKey(material=secure_hash_password(client.email, "pw")[:16])

        class PaddingUserManager:
            """Appends one byte to the LOGIN1 blob's plaintext."""

            def login1(self, request, now):
                genuine = deployment.user_managers["domain-0"].login1(request, now)
                plain = blob_key.decrypt(
                    genuine.encrypted_blob, nonce=genuine.blob_nonce, aad=b"login1"
                )
                return Login1Response(
                    token=genuine.token,
                    encrypted_blob=blob_key.encrypt(
                        plain + b"\x00", nonce=genuine.blob_nonce, aad=b"login1"
                    ),
                    blob_nonce=genuine.blob_nonce,
                )

        wire_user_manager(network, PaddingUserManager(), "rpc://um-padding")
        failures = []
        client.start_login("rpc://um-padding", on_done=lambda: pytest.fail("logged in!"),
                           on_fail=failures.append)
        sim.run()
        assert [type(exc) for exc in failures] == [WireError]

    def test_preconditions_are_protocol_errors(self, rig):
        deployment, sim, network = rig
        client = make_async_client(deployment, network)
        with pytest.raises(ProtocolError):
            client.start_switch("rpc://cm", "vt", on_done=lambda response: None)
        with pytest.raises(ProtocolError):
            client.start_renewal("rpc://cm", on_done=lambda response: None)
        with pytest.raises(ProtocolError):
            client.start_join("peer://nobody", on_done=lambda accept: None)
        sim.run()
        assert sim.events_processed == 0 and not client.errors


class TestAsyncFullFlow:
    def test_login_switch_join_pipeline(self, rig):
        deployment, sim, network = rig
        # A synchronous viewer seeds the overlay so there is a peer to join.
        seeder = deployment.create_client("seed@example.org", "pw", region="CH")
        seeder.login(now=0.0)
        seed_peer = deployment.watch(seeder, "vt", now=0.0, capacity=4)
        wire_peer(network, seed_peer)

        client = make_async_client(deployment, network)
        accepted = []

        def after_login():
            client.start_switch("rpc://cm", "vt", on_done=after_switch)

        def after_switch(response):
            target = next(
                d for d in response.peers if not d.peer_id.startswith("source")
            )
            client.start_join(f"peer://{target.peer_id}", on_done=accepted.append)

        client.start_login("rpc://um", on_done=after_login)
        sim.run()
        assert accepted, client.errors
        assert client.collector.count("LOGIN1") == 1
        assert client.collector.count("SWITCH2") == 1
        assert client.collector.count("JOIN") == 1
        # Five messages-exchange rounds = five recorded samples total.
        total = sum(client.collector.count(r) for r in client.collector.rounds())
        assert total == 5

    def test_join_hands_on_done_the_accept_with_its_key_updates(self, rig):
        """Both drivers run ``join_script``; the async one still hands
        ``on_done`` the ``JoinAccept`` -- whose keys now travel as the
        ``KeyUpdate``s a push would send, lead window included."""
        deployment, sim, network = rig
        seeder = deployment.create_client("seed@example.org", "pw", region="CH")
        seeder.login(now=0.0)
        seed_peer = deployment.watch(seeder, "vt", now=0.0, capacity=4)
        wire_peer(network, seed_peer)
        client = make_async_client(deployment, network)
        accepted = []

        def after_login():
            client.start_switch(
                "rpc://cm", "vt", on_done=lambda _response: sim.schedule_at(55.0, join)
            )

        def join(_sim):
            # t=55 is inside the lead window: the source pushes the
            # next key to the seeder, which then holds two.
            deployment.overlay("vt").source.tick(55.0)
            client.start_join(f"peer://{seed_peer.peer_id}", on_done=accepted.append)

        client.start_login("rpc://um", on_done=after_login)
        sim.run()
        (accept,) = accepted
        assert isinstance(accept, JoinAccept) and not client.errors
        assert [(u.serial, u.activate_at) for u in accept.key_updates] == [
            (0, 0.0), (1, 60.0),
        ]

    def test_policy_denial_travels_back(self, rig):
        deployment, sim, network = rig
        deployment.add_subscription_channel("vip", regions=["CH"], package_id="9", now=0.0)
        client = make_async_client(deployment, network)
        denials = []

        def after_login():
            client.start_switch("rpc://cm", "vip",
                                on_done=lambda r: pytest.fail("admitted!"),
                                on_fail=denials.append)

        client.start_login("rpc://um", on_done=after_login)
        sim.run()
        from repro.errors import PolicyRejectError

        assert denials and isinstance(denials[0], PolicyRejectError)

    def test_concurrent_clients_share_the_virtual_network(self, rig):
        deployment, sim, network = rig
        clients = [
            make_async_client(deployment, network, f"c{i}@example.org")
            for i in range(5)
        ]
        done = []
        for client in clients:
            client.start_login("rpc://um", on_done=lambda c=None: done.append(1))
        sim.run()
        assert len(done) == 5
        assert all(c.user_ticket is not None for c in clients)


class TestOneProtocolTwoDrivers:
    """``Client`` and ``AsyncClient`` drive the same scripts
    (:mod:`repro.core.exchange`); these pin that they cannot drift."""

    def test_join_refusal_reads_the_same_on_both_drivers(self, rig):
        deployment, sim, network = rig
        seeder = deployment.create_client("seed@example.org", "pw", region="CH")
        seeder.login(now=0.0)
        full = deployment.watch(seeder, "vt", now=0.0, capacity=0)
        wire_peer(network, full)
        expected = f"join rejected by {full.peer_id}: no capacity"

        viewer = deployment.create_client("sync@example.org", "pw", region="CH")
        viewer.login(now=0.0)
        viewer.switch_channel("vt", now=1.0)
        with pytest.raises(CapacityError) as sync_refusal:
            viewer.join_peer(full, now=1.0)
        assert str(sync_refusal.value) == expected

        client = make_async_client(deployment, network)
        refusals = []
        client.start_login("rpc://um", on_done=lambda: client.start_switch(
            "rpc://cm", "vt", on_done=lambda _response: client.start_join(
                f"peer://{full.peer_id}", on_done=lambda accept: pytest.fail("joined!"),
                on_fail=refusals.append)))
        sim.run()
        assert [(type(exc), str(exc)) for exc in refusals] == [(CapacityError, expected)]

    def test_both_drivers_send_the_same_requests(self, monkeypatch):
        built, delivered = [], []
        genuine_round = exchange.Round

        def recording_round(label, method, payload, reply_cost):
            built.append((label, method, type(payload)))
            return genuine_round(label, method, payload, reply_cost)

        def recording(method, call):
            def handler(server, payload, observed_addr, now):
                delivered.append((method, type(payload)))
                return call(server, payload, observed_addr, now)

            return handler

        monkeypatch.setattr(exchange, "Round", recording_round)
        for method, call in list(exchange.HANDLERS.items()):
            monkeypatch.setitem(exchange.HANDLERS, method, recording(method, call))

        deployment = Deployment(seed=31, channel_ticket_lifetime=60.0)
        deployment.add_free_channel("vt", regions=["CH"])
        cm = deployment.channel_manager_for("vt")
        seeder = deployment.create_client("seed@example.org", "pw", region="CH")
        seeder.login(now=0.0)
        seed_peer = deployment.watch(seeder, "vt", now=0.0, capacity=4)
        del built[:], delivered[:]

        viewer = deployment.create_client("same@example.org", "pw", region="CH")
        viewer.login(now=0.0)
        viewer.switch_channel("vt", now=1.0)
        viewer.renew_channel_ticket(now=2.0)
        viewer.join_peer(seed_peer, now=3.0)
        viewer.channel_ticket.verify(cm.public_key, now=3.0)
        sync_built, sync_delivered = list(built), list(delivered)
        del built[:], delivered[:]

        sim = Simulator()
        network = VirtualNetwork(sim, LatencyModel(random.Random(5)), random.Random(6))
        wire_user_manager(network, deployment.user_managers["domain-0"], "rpc://um")
        wire_channel_manager(network, cm, "rpc://cm")
        wire_peer(network, seed_peer, "rpc://peer")
        client = make_async_client(
            deployment, network, "same@example.org", net_addr=viewer.net_addr
        )
        joined = []
        client.start_login("rpc://um", on_done=lambda: client.start_switch(
            "rpc://cm", "vt", on_done=lambda _switched: client.start_renewal(
                "rpc://cm", on_done=lambda _renewed: client.start_join(
                    "rpc://peer", on_done=joined.append))))
        sim.run()
        assert joined, client.errors
        client.channel_ticket.verify(cm.public_key, now=sim.now)

        assert built == sync_built and delivered == sync_delivered
        assert [label for label, _, _ in built] == [
            "LOGIN1", "LOGIN2", "SWITCH1", "SWITCH2", "RENEW1", "RENEW2", "JOIN",
        ]
        # Every request a script built went through the handler table.
        assert [(method, kind) for _, method, kind in built] == delivered

    def test_an_operation_leaves_nothing_for_the_cyclic_collector(self, rig):
        # An engine whose callbacks close over themselves leaks ~27
        # objects per operation to the cyclic GC, which the benchmark's
        # large heaps pay for on every generation-2 pass.
        deployment, sim, network = rig
        clients = [
            make_async_client(deployment, network, f"gc{i}@example.org")
            for i in range(4)
        ]

        def zap(client, left):
            if left:
                client.start_switch(
                    "rpc://cm", "vt", on_done=lambda _response: zap(client, left - 1)
                )

        for client in clients:
            client.start_login("rpc://um", on_done=lambda client=client: zap(client, 50))
        gc.collect()
        gc.disable()
        try:
            sim.run()
            assert all(not c.errors and c.channel_ticket for c in clients)
            assert len(clients[0].collector.latencies("SWITCH2")) == 50
            assert gc.collect() == 0
        finally:
            gc.enable()
