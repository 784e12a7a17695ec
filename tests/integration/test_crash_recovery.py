"""Channel Manager crash + recovery under a live channel-switch storm.

The acceptance scenario for the durability subsystem: a storm of
clients switches channels over the virtual network; the Channel
Manager farm dies mid-storm -- with at least one client stopped
*between* SWITCH1 and SWITCH2 -- and is rebuilt from its durable
store.  Afterwards:

* the recovered viewing log is byte-identical to the pre-crash log;
* the client paused between rounds completes SWITCH2 with its
  pre-crash challenge token and never re-logs-in;
* renewals keep working against the recovered farm;
* the single-viewing-location rule holds over the whole log.
"""

import random

import pytest

from repro.core.challenge import answer_challenge
from repro.core.protocol import Switch1Request, Switch2Request
from repro.crypto.drbg import HmacDrbg
from repro.deployment import Deployment
from repro.sim.driver import AsyncClient, wire_channel_manager, wire_user_manager
from repro.sim.engine import Simulator
from repro.sim.faults import (
    FaultInjector,
    single_location_violations,
    viewing_log_divergence,
)
from repro.sim.network import LatencyModel, RegionRtt
from repro.sim.rpc import VirtualNetwork

RTT = 0.1
CM_ADDR = "rpc://cm"
UM_ADDR = "rpc://um"
CRASH_AT = 4.5
RECOVER_AT = 5.0


def build_rig(n_clients=8):
    deployment = Deployment(seed=23, channel_ticket_lifetime=60.0)
    deployment.enable_durability()
    deployment.add_free_channel("news", regions=["CH"])
    deployment.add_free_channel("sport", regions=["CH"])
    sim = Simulator()
    latency = LatencyModel(
        random.Random(5),
        table={("CH", "dc"): RegionRtt(base_rtt=RTT, sigma=0.0001, slow_path_prob=0.0)},
    )
    network = VirtualNetwork(sim, latency, random.Random(6))
    wire_user_manager(network, deployment.user_managers["domain-0"], UM_ADDR)
    wire_channel_manager(network, deployment.channel_managers["default"], CM_ADDR)

    clients = []
    for i in range(n_clients):
        email = f"storm{i}@example.org"
        deployment.accounts.register(email, "pw")
        clients.append(AsyncClient(
            network=network, email=email, password="pw",
            version=deployment.client_version, image=deployment.client_image,
            net_addr=deployment.geo.random_address("CH", deployment.rng),
            region="CH", drbg=HmacDrbg(email.encode()),
        ))
    return deployment, sim, network, clients


def test_cm_crash_mid_switch_storm():
    deployment, sim, network, clients = build_rig()
    injector = FaultInjector(network)
    checkpoint = {}

    # --- the storm: everyone logs in, then switches back and forth ---
    switch_done = []
    arrival = random.Random(7)
    for client in clients:
        sim.schedule_at(arrival.uniform(0.0, 1.0),
                        lambda s, c=client: c.start_login(UM_ADDR, on_done=lambda: None))
        for k, when in enumerate((3.0, 4.3, 6.5, 8.0)):
            channel = "news" if k % 2 == 0 else "sport"
            sim.schedule_at(
                when + arrival.uniform(0.0, 0.4),
                lambda s, c=client, ch=channel: (
                    c.user_ticket is not None
                    and c.start_switch(CM_ADDR, ch,
                                       on_done=lambda r: switch_done.append(s.now))
                ),
            )

    # --- the probe: caught exactly between SWITCH1 and SWITCH2 ---
    probe = clients[0]
    probe_state = {}

    def probe_switch1(sim_):
        network.call(
            probe.net_addr, "CH", CM_ADDR, "switch1",
            Switch1Request(user_ticket=probe.user_ticket, channel_id="news"),
            on_reply=lambda r: probe_state.update(token=r.token),
        )

    sim.schedule_at(4.0, probe_switch1)  # round 1 answered ~4.1, pre-crash

    def probe_switch2(sim_):
        assert "token" in probe_state, "probe never completed SWITCH1"
        network.call(
            probe.net_addr, "CH", CM_ADDR, "switch2",
            Switch2Request(
                user_ticket=probe.user_ticket,
                token=probe_state["token"],
                signature=answer_challenge(probe_state["token"], probe._key),
                channel_id="news",
            ),
            on_reply=lambda r: probe_state.update(ticket=r.ticket),
        )

    sim.schedule_at(6.0, probe_switch2)  # round 2 lands on the recovered farm

    # --- and a renewal against the recovered instance (lifetime 60 s,
    # window 120 s: renewable immediately) ---
    def renew(sim_):
        ticket = probe_state.get("ticket")
        assert ticket is not None, "probe never got its ticket"

        def round2(r1):
            network.call(
                probe.net_addr, "CH", CM_ADDR, "switch2",
                Switch2Request(
                    user_ticket=probe.user_ticket,
                    token=r1.token,
                    signature=answer_challenge(r1.token, probe._key),
                    expiring_ticket=ticket,
                ),
                on_reply=lambda r: probe_state.update(renewed=r.ticket),
            )

        network.call(
            probe.net_addr, "CH", CM_ADDR, "switch1",
            Switch1Request(user_ticket=probe.user_ticket, expiring_ticket=ticket),
            on_reply=round2,
        )

    sim.schedule_at(8.5, renew)

    # --- the crash ---
    def rebuild():
        dead = deployment.crash_channel_manager("default")
        checkpoint["pre_crash_bytes"] = dead.viewing_log_bytes()
        checkpoint["pre_crash_log"] = dead.viewing_log()
        recovered = deployment.recover_channel_manager("default")
        checkpoint["recovered_bytes"] = recovered.viewing_log_bytes()
        wire_channel_manager(network, recovered, CM_ADDR)
        return deployment.stores["cm-default"]

    crash = injector.crash_and_recover(CM_ADDR, CRASH_AT, RECOVER_AT, rebuild)
    sim.run()

    # The crash actually happened mid-storm and dropped traffic.
    assert crash.downtime == RECOVER_AT - CRASH_AT
    assert network.messages_dropped_down > 0
    assert crash.records_replayed > 0

    # (1) Recovered state is byte-identical to the pre-crash log.
    assert checkpoint["recovered_bytes"] == checkpoint["pre_crash_bytes"]
    assert len(checkpoint["pre_crash_log"]) > 0

    # (2) The probe completed SWITCH2 with its pre-crash token -- on
    # the recovered instance, without a second login.
    assert probe_state["ticket"].channel_id == "news"
    assert len(probe.collector.latencies("LOGIN2")) == 1  # logged in exactly once
    # (3) ...and its renewal succeeded there too.
    assert probe_state["renewed"].channel_id == "news"

    # (4) The storm continued after recovery.
    recovered_manager = deployment.channel_managers["default"]
    assert any(t > RECOVER_AT for t in switch_done)
    assert recovered_manager.renewals_issued >= 1

    # (5) Zero single-viewing-location violations across the restart,
    # and the final log still extends the pre-crash log exactly.
    final_log = recovered_manager.viewing_log()
    assert single_location_violations(final_log) == []
    assert viewing_log_divergence(checkpoint["pre_crash_log"], final_log) is None


def test_storm_without_crash_matches_recovered_replay():
    """Control: the same storm, no crash -- then an offline replay of
    the store reproduces the manager byte-for-byte."""
    from repro.core.channel_manager import ChannelManager

    deployment, sim, network, clients = build_rig(n_clients=4)
    done = []
    for i, client in enumerate(clients):
        sim.schedule_at(0.1 * i,
                        lambda s, c=client: c.start_login(UM_ADDR, on_done=lambda: None))
        sim.schedule_at(2.0 + 0.1 * i,
                        lambda s, c=client: c.start_switch(
                            CM_ADDR, "news", on_done=lambda r: done.append(1)))
    sim.run()
    assert len(done) == 4

    live = deployment.channel_managers["default"]
    farm = deployment.farm("cm://default")
    replayed = ChannelManager.recover(
        farm.store,
        signing_key=farm.signing_key,
        farm_secret=farm.farm_secret,
        drbg=HmacDrbg(farm.farm_secret, b"offline-replay"),
        user_manager_keys=[m.public_key for m in deployment.user_managers.values()],
        ticket_lifetime=deployment.channel_ticket_lifetime,
        partition="default",
    )
    assert replayed.viewing_log_bytes() == live.viewing_log_bytes()
    assert replayed.tickets_issued == live.tickets_issued
