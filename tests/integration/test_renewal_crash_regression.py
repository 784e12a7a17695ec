"""Regression: a crash during ticket renewal must never open a second
viewing location.

The dangerous interleaving: the Channel Manager durably logs a renewal
for address A, then dies *before the reply leaves* -- so client A
never learns the renewal succeeded.  After recovery A retries with its
old expiring ticket; later the account legitimately moves to address
B.  The recovered farm must (1) accept A's duplicate renewal (same
location -- the log already shows A), and (2) refuse any further
renewal from A once the log shows B, so that at no point are two
locations concurrently entitled.
"""

import random

import pytest

from repro.core.challenge import answer_challenge
from repro.core.protocol import Switch1Request, Switch2Request
from repro.crypto.drbg import HmacDrbg
from repro.deployment import Deployment
from repro.errors import RenewalRefusedError
from repro.sim.driver import AsyncClient, wire_channel_manager, wire_user_manager
from repro.sim.engine import Simulator
from repro.sim.faults import (
    FaultInjector,
    single_location_violations,
    viewing_log_divergence,
)
from repro.sim.network import LatencyModel, RegionRtt
from repro.sim.rpc import VirtualNetwork

UM_ADDR = "rpc://um"
CM_ADDR = "rpc://cm"

# A large RTT makes the in-flight window wide: SWITCH2 sent at t
# arrives at t+0.5 and its reply lands at t+1.0, so a crash anywhere
# in between is deterministic despite wall-clock compute charges.
RTT = 1.0
CRASH_AT = 11.7      # SWITCH2 processed at ~11.5, reply due ~12.0
RECOVER_AT = 12.5


def build_rig():
    deployment = Deployment(seed=31, channel_ticket_lifetime=60.0)
    deployment.enable_durability()
    deployment.add_free_channel("news", regions=["CH"])
    sim = Simulator()
    latency = LatencyModel(
        random.Random(3),
        table={("CH", "dc"): RegionRtt(base_rtt=RTT, sigma=0.0001, slow_path_prob=0.0)},
    )
    network = VirtualNetwork(sim, latency, random.Random(4))
    wire_user_manager(network, deployment.user_managers["domain-0"], UM_ADDR)
    wire_channel_manager(network, deployment.channel_managers["default"], CM_ADDR)
    deployment.accounts.register("mover@example.org", "pw")

    def make_client(salt):
        # Distinct CH addresses: the one-viewing-location rule keys on
        # the NetAddr the ticket is bound to.
        return AsyncClient(
            network=network, email="mover@example.org", password="pw",
            version=deployment.client_version, image=deployment.client_image,
            net_addr=deployment.geo.random_address("CH", deployment.rng),
            region="CH",
            drbg=HmacDrbg(b"mover" + salt),
        )

    return deployment, sim, network, make_client


def renewal_rounds(network, client, expiring, on_renewed, on_refused=None):
    """Drive SWITCH1 + SWITCH2 as a renewal of ``expiring``."""

    def round2(r1):
        network.call(
            client.net_addr, "CH", CM_ADDR, "switch2",
            Switch2Request(
                user_ticket=client.user_ticket,
                token=r1.token,
                signature=answer_challenge(r1.token, client._key),
                expiring_ticket=expiring,
            ),
            on_reply=lambda r: on_renewed(r.ticket),
            on_error=on_refused,
        )

    network.call(
        client.net_addr, "CH", CM_ADDR, "switch1",
        Switch1Request(user_ticket=client.user_ticket, expiring_ticket=expiring),
        on_reply=round2,
        on_error=on_refused,
    )


def test_crash_during_renewal_never_grants_two_locations():
    deployment, sim, network, make_client = build_rig()
    injector = FaultInjector(network)
    viewer_a = make_client(b"-a")
    viewer_b = make_client(b"-b")
    assert viewer_a.net_addr != viewer_b.net_addr
    state = {}

    # --- address A: login, switch, then a renewal the crash eats ---
    sim.schedule_at(0.0, lambda s: viewer_a.start_login(UM_ADDR, on_done=lambda: None))
    sim.schedule_at(
        5.0, lambda s: viewer_a.start_switch(
            CM_ADDR, "news",
            on_done=lambda r: state.update(ticket_a=viewer_a.channel_ticket)),
    )

    def doomed_renewal(sim_):
        # The reply is due at ~t+2 RTT; the crash lands first, so this
        # callback firing at all would be the bug.
        renewal_rounds(network, viewer_a, state["ticket_a"],
                       on_renewed=lambda t: state.update(doomed_reply=t))

    sim.schedule_at(10.0, doomed_renewal)  # SWITCH2 in flight at the crash

    # --- the crash, with the renewal durably logged but unacknowledged ---
    checkpoint = {}

    def rebuild():
        dead = deployment.crash_channel_manager("default")
        checkpoint["pre_crash_log"] = dead.viewing_log()
        recovered = deployment.recover_channel_manager("default")
        wire_channel_manager(network, recovered, CM_ADDR)
        return deployment.stores["cm-default"]

    crash = injector.crash_and_recover(CM_ADDR, CRASH_AT, RECOVER_AT, rebuild)

    # --- A retries the same renewal against the recovered farm ---
    sim.schedule_at(
        15.0, lambda s: renewal_rounds(
            network, viewer_a, state["ticket_a"],
            on_renewed=lambda t: state.update(retry_ticket=t)),
    )

    # --- the account moves: same user logs in from B and switches ---
    sim.schedule_at(20.0, lambda s: viewer_b.start_login(UM_ADDR, on_done=lambda: None))
    sim.schedule_at(
        25.0, lambda s: viewer_b.start_switch(
            CM_ADDR, "news",
            on_done=lambda r: state.update(ticket_b=viewer_b.channel_ticket)),
    )

    # --- A renews again: the log now shows B, so this must be refused ---
    refusals = []

    def stale_renewal(sim_):
        assert "ticket_b" in state, "account never moved to B"
        renewal_rounds(
            network, viewer_a, state["retry_ticket"],
            on_renewed=lambda t: state.update(stale_reply=t),
            on_refused=refusals.append,
        )

    sim.schedule_at(32.0, stale_renewal)
    sim.run()

    # The doomed renewal was processed (durably) but never acknowledged.
    assert crash.records_replayed > 0
    assert "doomed_reply" not in state
    pre_crash_renewals = [e for e in checkpoint["pre_crash_log"] if e.renewal]
    assert len(pre_crash_renewals) == 1
    assert pre_crash_renewals[0].net_addr == viewer_a.net_addr

    # The retry from the same address succeeded on the recovered farm.
    assert state["retry_ticket"].channel_id == "news"

    # The move to B succeeded, and A's renewal afterwards was refused.
    assert state["ticket_b"].channel_id == "news"
    assert "stale_reply" not in state
    assert len(refusals) == 1
    assert isinstance(refusals[0], RenewalRefusedError)

    # At no point did the log entitle two concurrent locations, and
    # recovery preserved the pre-crash prefix exactly.
    final_log = deployment.channel_managers["default"].viewing_log()
    assert single_location_violations(final_log) == []
    assert viewing_log_divergence(checkpoint["pre_crash_log"], final_log) is None
    # ...ending with the fresh (non-renewal) entry for address B.
    assert final_log[-1].net_addr == viewer_b.net_addr
    assert not final_log[-1].renewal


def test_recovered_primary_rejoins_its_replicas_viewing_log():
    """Crash x replica: the recovered primary must consult the *same*
    viewing log as the surviving replica, or a switch the replica
    serves while (or after) the primary is down is invisible to the
    primary's renewal check and a superseded location keeps renewing.
    """
    deployment = Deployment(seed=7)
    deployment.enable_durability()
    deployment.add_free_channel("news", regions=["CH"])
    (replica,) = deployment.add_channel_manager_replicas("default", 1)

    viewer_a = deployment.create_client("mover@example.org", "pw", region="CH")
    viewer_a.login(now=0.0)
    viewer_a.switch_channel("news", now=1.0)  # served by the primary

    deployment.crash_channel_manager("default")
    primary = deployment.recover_channel_manager("default")

    # The account moves to a second address; the replica serves it.
    viewer_b = deployment.create_client("mover@example.org", "pw", region="CH")
    assert viewer_a.net_addr != viewer_b.net_addr
    viewer_b.login(now=100.0)
    deployment.directory.register("cm://default", replica)
    viewer_b.switch_channel("news", now=101.0)
    deployment.directory.register("cm://default", primary)

    with pytest.raises(RenewalRefusedError):
        viewer_a.renew_channel_ticket(now=800.0)
    farm_log = primary.viewing_log()
    assert farm_log == replica.viewing_log()
    assert [e.net_addr for e in farm_log] == [viewer_a.net_addr, viewer_b.net_addr]
    assert single_location_violations(farm_log) == []


def test_recovered_user_manager_rejoins_its_replicas_user_database():
    """The UM twin: ``UserManager.share_state_with`` promises one user
    database per farm, by reference; a recovery must restore that."""
    deployment = Deployment(seed=7)
    deployment.enable_durability()
    (replica,) = deployment.add_user_manager_replicas("domain-0", 1)
    deployment.accounts.register("early@example.org", "pw")

    deployment.crash_user_manager("domain-0")
    primary = deployment.recover_user_manager("domain-0")

    assert primary._users_by_email is replica._users_by_email
    assert primary._users_by_id is replica._users_by_id
    # ...so an account either instance syncs is visible to both.
    deployment.accounts.register("late@example.org", "pw")
    assert (
        primary.user_by_email("late@example.org")
        is replica.user_by_email("late@example.org")
    )
    assert primary.user_by_email("early@example.org") is not None
