"""A viewer that survives manager failures.

:class:`ResilientAsyncClient` layers the resilience machinery over
:class:`~repro.sim.driver.AsyncClient`: every protocol operation
(LOGIN, SWITCH, RENEWAL) runs under a :class:`RetryPolicy`, picks its
endpoint from an :class:`EndpointPool` (failing over when a breaker
opens), and emits ``kind="resilience"`` tracer spans (RETRY, FAILOVER,
DEGRADED.ENTER/EXIT) so a chaos run can be audited span by span.

**Degraded viewing mode** (the tentpole's part c) is grounded in the
paper's renewal-bit semantics, Section IV-D: the Channel Ticket a
viewer already holds is self-contained proof of entitlement until its
expire time, and content keys arrive over the P2P overlay, not from
the Channel Manager.  So when the CM becomes unreachable the client
*keeps decrypting* -- it merely cannot renew.  It re-enters the
renewal loop with backoff and accounts the outage:

* time between the first failed renewal attempt and recovery, while
  the ticket is still valid, accrues to ``degraded_seconds`` -- the
  viewer noticed nothing;
* if the ticket expires before a renewal lands, playback hard-stops:
  the episode counts one ``playback_interruption`` and the post-expiry
  tail accrues to ``interruption_seconds``.

A renewal *refused* by a live CM (protocol reply, e.g. the one-
viewing-location rule or a missed renewal window) is never retried as
a renewal; the client falls back to a fresh SWITCH, which re-runs the
full policy evaluation.
"""

from __future__ import annotations

import hashlib
import random
from typing import Callable, Iterable, Optional

from repro.errors import (
    AuthorizationError,
    RpcDropError,
    RpcTimeoutError,
    TransportError,
)
from repro.resilience.counters import ResilienceCounters
from repro.resilience.endpoints import EndpointPool
from repro.resilience.retry import RetryPolicy
from repro.sim.driver import AsyncClient


class ResilientAsyncClient(AsyncClient):
    """An AsyncClient with retry, failover, and degraded viewing mode."""

    def __init__(
        self,
        *,
        um_addresses: Iterable[str],
        cm_addresses: Iterable[str],
        retry: Optional[RetryPolicy] = None,
        counters: Optional[ResilienceCounters] = None,
        rng: Optional[random.Random] = None,
        breaker_threshold: int = 3,
        breaker_reset: float = 30.0,
        renew_lead: float = 60.0,
        round_timeout: Optional[float] = 8.0,
        **kwargs,
    ) -> None:
        super().__init__(round_timeout=round_timeout, **kwargs)
        self.retry = retry or RetryPolicy()
        self.counters = counters or ResilienceCounters()
        # str.hash() is salted per process; derive the fallback jitter
        # seed stably so identical runs produce identical backoff.
        self._rng = rng or random.Random(
            int.from_bytes(
                hashlib.sha256(self.email.encode("utf-8")).digest()[:8], "big"
            )
        )
        self.um_pool = EndpointPool(
            um_addresses, breaker_threshold, breaker_reset, self.counters
        )
        self.cm_pool = EndpointPool(
            cm_addresses, breaker_threshold, breaker_reset, self.counters
        )
        self.renew_lead = renew_lead
        self.channel: Optional[str] = None
        #: Per-client outcome tallies (the shared ``counters`` block
        #: aggregates the same events deployment-wide).
        self.retries = 0
        self.giveups = 0
        self.failovers = 0
        self.degraded_seconds = 0.0
        self.interruptions = 0
        self.interruption_seconds = 0.0
        self._degraded_since: Optional[float] = None
        self._degraded_expiry: Optional[float] = None

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------

    def _event(self, name: str, **attrs) -> None:
        """Record a zero-duration resilience event as a span."""
        if self.tracer is None:
            return
        now = self._network.sim.now
        span = self.tracer.start_span(name, now=now, kind="resilience")
        span.annotate("client", self.email)
        for key, value in attrs.items():
            span.annotate(key, value)
        self.tracer.finish(span, now=now)

    @property
    def degraded(self) -> bool:
        return self._degraded_since is not None

    # ------------------------------------------------------------------
    # The retry/failover engine
    # ------------------------------------------------------------------

    def _run_op(
        self,
        op_name: str,
        pool: EndpointPool,
        attempt_fn: Callable[[str, Callable, Callable[[Exception], None]], None],
        on_done: Callable,
        on_fail: Callable[[Exception], None],
        on_first_failure: Optional[Callable[[Exception], None]] = None,
    ) -> None:
        """Run one logical operation with retry + failover.

        ``attempt_fn(address, done, fail)`` issues a single attempt
        against ``address``.  Retryable (transport) failures feed the
        endpoint's breaker and consume a backoff step; protocol
        rejections count as endpoint *successes* (the server answered)
        and abort the loop immediately.
        """
        sim = self._network.sim
        state = {"attempt": 0, "delays": self.retry.delays(self._rng),
                 "failed_once": False}
        primary = pool.primary

        def back_off(exc: Exception) -> None:
            if not state["failed_once"]:
                state["failed_once"] = True
                if on_first_failure is not None:
                    on_first_failure(exc)
            delay = next(state["delays"], None)
            if delay is None:
                self.counters.giveups += 1
                self.giveups += 1
                self._event("GIVEUP", op=op_name, attempts=state["attempt"],
                            error=type(exc).__name__)
                on_fail(exc)
                return
            self.counters.retries += 1
            self.retries += 1
            self._event("RETRY", op=op_name, attempt=state["attempt"],
                        error=type(exc).__name__, delay=delay)
            sim.schedule(delay, lambda _sim: attempt())

        def attempt() -> None:
            state["attempt"] += 1
            address = pool.pick(sim.now)
            if address is None:
                self.counters.pool_exhausted += 1
                back_off(RpcDropError(
                    op_name, "<pool>", "all endpoints circuit-broken"))
                return
            if address != primary:
                self.counters.failovers += 1
                self.failovers += 1
                self._event("FAILOVER", op=op_name, endpoint=address,
                            attempt=state["attempt"])

            def done(*result) -> None:
                pool.record_success(address, sim.now)
                on_done(*result)

            def fail(exc: Exception) -> None:
                if not RetryPolicy.is_retryable(exc):
                    # A reply from a live server: the endpoint is
                    # healthy even though the request was refused.
                    pool.record_success(address, sim.now)
                    on_fail(exc)
                    return
                if isinstance(exc, RpcTimeoutError):
                    self.counters.timeouts += 1
                else:
                    self.counters.drops += 1
                pool.record_failure(address, sim.now)
                back_off(exc)

            attempt_fn(address, done, fail)

        attempt()

    # ------------------------------------------------------------------
    # Resilient protocol operations
    # ------------------------------------------------------------------

    def start_resilient_login(
        self,
        on_done: Callable[[], None],
        on_fail: Optional[Callable[[Exception], None]] = None,
    ) -> None:
        self._run_op(
            "LOGIN",
            self.um_pool,
            lambda address, done, fail: self.start_login(
                address, on_done=done, on_fail=fail
            ),
            on_done,
            on_fail or (lambda exc: None),
        )

    def start_resilient_switch(
        self,
        channel_id: str,
        on_done: Callable,
        on_fail: Optional[Callable[[Exception], None]] = None,
    ) -> None:
        self._run_op(
            "SWITCH",
            self.cm_pool,
            lambda address, done, fail: self.start_switch(
                address, channel_id, on_done=done, on_fail=fail
            ),
            on_done,
            on_fail or (lambda exc: None),
        )

    # ------------------------------------------------------------------
    # The viewing loop: watch -> renew forever, degrading gracefully
    # ------------------------------------------------------------------

    def watch(
        self,
        channel_id: str,
        on_fail: Optional[Callable[[Exception], None]] = None,
    ) -> None:
        """Login, switch to ``channel_id``, and keep the ticket renewed.

        The renewal loop continues until the simulation ends; failures
        along the way degrade (or, past ticket expiry, interrupt) the
        session rather than abandoning it.
        """
        self.channel = channel_id

        def switched(_response) -> None:
            self._schedule_renewal()

        def logged_in() -> None:
            self.start_resilient_switch(channel_id, switched, on_fail)

        self.start_resilient_login(logged_in, on_fail)

    def _schedule_renewal(self) -> None:
        sim = self._network.sim
        renew_at = self.channel_ticket.expire_time - self.renew_lead
        delay = max(0.0, renew_at - sim.now)
        sim.schedule(delay, lambda _sim: self._renew_now())

    def _renew_now(self) -> None:
        if self.channel_ticket is None or self.channel is None:
            return
        sim = self._network.sim

        def done(_response) -> None:
            self._exit_degraded(sim.now)
            self._schedule_renewal()

        def first_failure(_exc: Exception) -> None:
            self._enter_degraded(sim.now)

        def fail(exc: Exception) -> None:
            if isinstance(exc, TransportError):
                # The whole backoff sequence burned without reaching
                # any CM replica.  The ticket (if still valid) keeps
                # playback alive; park at the policy's cap and try the
                # renewal again -- breakers half-open in the meantime.
                sim.schedule(
                    self.retry.max_delay, lambda _sim: self._renew_now()
                )
                return
            if isinstance(exc, AuthorizationError):
                # A live CM refused the renewal (window missed while
                # degraded, or the one-location rule).  Renewing again
                # is pointless; a fresh SWITCH re-runs policy and --
                # if this viewer is entitled -- re-admits it.
                self._event("RENEWAL.REFUSED", error=type(exc).__name__)
                self._fresh_switch()
                return
            # Anything else is a bug surfaced by the protocol layer;
            # leave it in self.errors (AsyncClient recorded it).

        self._run_op(
            "RENEWAL",
            self.cm_pool,
            lambda address, done_, fail_: self.start_renewal(
                address, on_done=done_, on_fail=fail_
            ),
            done,
            fail,
            on_first_failure=first_failure,
        )

    def _fresh_switch(self) -> None:
        sim = self._network.sim

        def done(_response) -> None:
            self._exit_degraded(sim.now)
            self._schedule_renewal()

        def fail(exc: Exception) -> None:
            if isinstance(exc, TransportError):
                sim.schedule(
                    self.retry.max_delay, lambda _sim: self._fresh_switch()
                )

        self.start_resilient_switch(self.channel, done, fail)

    # ------------------------------------------------------------------
    # Degraded-mode accounting
    # ------------------------------------------------------------------

    def _enter_degraded(self, now: float) -> None:
        if self._degraded_since is not None:
            return
        self._degraded_since = now
        self._degraded_expiry = (
            self.channel_ticket.expire_time
            if self.channel_ticket is not None
            else now
        )
        self.counters.degraded_entries += 1
        self._event("DEGRADED.ENTER", expires_at=self._degraded_expiry)

    def _exit_degraded(self, now: float) -> None:
        if self._degraded_since is None:
            return
        start = self._degraded_since
        expiry = self._degraded_expiry
        if now <= expiry:
            span = now - start
            self.degraded_seconds += span
            self.counters.degraded_seconds += span
        else:
            # The ticket ran out mid-outage: degraded until expiry,
            # hard-stopped after -- the paper's semantics exactly.
            span = max(0.0, expiry - start)
            self.degraded_seconds += span
            self.counters.degraded_seconds += span
            self.interruption_seconds += now - max(expiry, start)
            self.interruptions += 1
            self.counters.playback_interruptions += 1
        self.counters.degraded_exits += 1
        self._event(
            "DEGRADED.EXIT",
            degraded_for=now - start,
            interrupted=now > expiry,
        )
        self._degraded_since = None
        self._degraded_expiry = None

    def finalize(self, now: float) -> None:
        """Flush an open degraded interval at end of run.

        Chaos rigs call this at the horizon so ``degraded_seconds`` /
        interruption tallies cover outages still in progress when the
        simulation stops.
        """
        self._exit_degraded(now)
