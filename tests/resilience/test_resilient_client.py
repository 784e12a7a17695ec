"""Integration tests for ResilientAsyncClient over the chaos rig.

The unit tests pin the retry/breaker mechanics; these pin the
*viewing* semantics -- failover picks the replica, degraded mode keeps
playback alive exactly while the Channel Ticket is valid, and an
outage that outlives the ticket becomes a recorded interruption, not a
silent hang.
"""

import pytest

from repro.crypto.drbg import HmacDrbg
from repro.errors import RenewalRefusedError
from repro.sim.chaos import CM0, CM1, UM0, ChaosConfig, ChaosRig
from repro.sim.driver import AsyncClient


def test_watch_converges_with_healthy_farms():
    rig = ChaosRig(ChaosConfig(clients=2, horizon=400.0))
    result = rig.run("healthy")
    assert result.passed, result.violations
    assert all(o.converged for o in result.outcomes)
    assert all(o.retries == 0 and o.failovers == 0 for o in result.outcomes)
    assert rig.deployment.resilience.degraded_entries == 0


def test_primary_cm_down_from_start_fails_over():
    rig = ChaosRig(ChaosConfig(clients=2, horizon=400.0))
    rig.injector.schedule([(0.0, "down", CM0)])
    result = rig.run("primary-dead")
    assert result.passed, result.violations
    assert all(o.converged for o in result.outcomes)
    assert all(o.failovers >= 1 for o in result.outcomes)
    # The switch never succeeded against cm0, yet its viewing log has
    # the entries: the log is shared by reference across the farm.
    assert len(rig.primary_cm.viewing_log()) > 0
    assert rig.primary_cm.viewing_log() == rig.replica_cm.viewing_log()


def test_outage_shorter_than_ticket_is_degraded_not_interrupted():
    rig = ChaosRig(ChaosConfig(clients=2, horizon=700.0))
    # Both farm instances gone across the renewal point (~241 s), back
    # well before any ticket expires (~301 s).
    for address in (CM0, CM1):
        rig.injector.schedule([(235.0, "down", address), (265.0, "up", address)])
    result = rig.run("blip")
    assert result.passed, result.violations
    for outcome in result.outcomes:
        assert outcome.interruptions == 0
        assert outcome.degraded_seconds > 0.0
        assert outcome.converged


def test_outage_outliving_ticket_records_interruption_then_recovers():
    # Shorter round timeout tightens the retry schedule so the client
    # is mid-backoff, not mid-timeout, when the farm returns.
    config = ChaosConfig(clients=2, horizon=700.0, round_timeout=5.0,
                         min_uninterrupted=0.0)
    rig = ChaosRig(config)
    # Both instances down from before the renewal window until well
    # past every ticket's expiry (~301-303 s): playback must stop.
    for address in (CM0, CM1):
        rig.injector.schedule([(230.0, "down", address), (380.0, "up", address)])
    result = rig.run("long-outage")
    assert result.passed, result.violations
    for outcome in result.outcomes:
        assert outcome.interruptions == 1
        assert outcome.interruption_seconds > 0.0
        assert outcome.degraded_seconds > 0.0
        # The ±120 s renewal window is still open at recovery, so the
        # old ticket renews and the client reconverges.
        assert outcome.converged
    counters = rig.deployment.resilience
    assert counters.breaker_opens > 0
    assert counters.playback_interruptions == 2


def test_um_outage_during_login_retries_until_converged():
    rig = ChaosRig(ChaosConfig(clients=2, horizon=400.0))
    rig.injector.schedule([(0.0, "down", UM0), (40.0, "up", UM0)])
    result = rig.run("um-down")
    assert result.passed, result.violations
    assert all(o.converged for o in result.outcomes)
    # Login either failed over to um1 or retried into the recovery.
    assert rig.deployment.resilience.retries > 0


def _resilience_events(rig, email):
    return [
        span for span in rig.tracer.spans
        if span.annotations.get("client") == email
        and (span.kind == "resilience" or span.name in ("SWITCH", "RENEWAL"))
    ]


def test_backoff_exhausted_parks_at_the_cap_and_playback_holds():
    # Three attempts capped at 10 s give up at ~271 s; both instances
    # stay down until 290 s, so the renewal parks for retry.max_delay,
    # tries again, and lands before the ~301 s ticket expiry.
    config = ChaosConfig(clients=2, horizon=700.0, retry_attempts=3, retry_cap=10.0)
    rig = ChaosRig(config)
    for address in (CM0, CM1):
        rig.injector.schedule([(235.0, "down", address), (290.0, "up", address)])
    result = rig.run("renewal-parked")
    assert result.passed, result.violations
    for viewer, outcome in zip(rig.fleet, result.outcomes):
        events = _resilience_events(rig, viewer.email)
        (giveup,) = [s for s in events if s.name == "GIVEUP"]
        assert giveup.annotations["op"] == "RENEWAL"
        retry = next(s for s in events if s.name == "RENEWAL" and s.start > giveup.start)
        assert retry.start - giveup.start == pytest.approx(config.retry_cap)
        assert outcome.giveups == 1
        assert outcome.interruptions == 0  # the held ticket covered the outage
        assert outcome.degraded_seconds > 0.0
        assert outcome.converged


def test_refused_renewal_falls_back_to_a_fresh_switch():
    # The account is switched in from a second location at t=100, so
    # the live CM refuses the first viewer's renewal at ~240 s under
    # the one-viewing-location rule; a fresh SWITCH re-admits it.
    config = ChaosConfig(clients=2, horizon=700.0)
    rig = ChaosRig(config)
    deployment = rig.deployment
    viewer = rig.fleet[0]
    interloper = AsyncClient(
        network=rig.network, email=viewer.email, password="pw",
        version=deployment.client_version, image=deployment.client_image,
        net_addr=deployment.geo.random_address("CH", deployment.rng), region="CH",
        drbg=HmacDrbg(b"second-location"), tracer=rig.tracer,
    )
    rig.sim.schedule(100.0, lambda _sim: interloper.start_login(
        UM0, on_done=lambda: interloper.start_switch(CM0, config.channel, on_done=lambda _r: None)))
    result = rig.run("renewal-refused")
    assert result.passed, result.violations

    events = _resilience_events(rig, viewer.email)
    (refused,) = [s for s in events if s.name == "RENEWAL.REFUSED"]
    assert refused.annotations["error"] == "RenewalRefusedError"
    assert [type(e) for e in viewer.errors] == [RenewalRefusedError]
    fresh = next(s for s in events if s.name == "SWITCH" and s.start >= refused.start)
    assert fresh.start == refused.start
    outcome = result.outcomes[0]
    assert outcome.converged and outcome.interruptions == 0
    assert viewer.channel_ticket.expire_time > config.horizon
    assert viewer.channel_ticket.net_addr == viewer.net_addr
