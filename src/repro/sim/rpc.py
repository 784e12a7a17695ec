"""Message-level RPC over the discrete-event engine.

The timing experiments model requests as service-time samples; this
module goes one level deeper: actual request/response *messages*
between the functional components, delivered over the virtual network
with per-message latency, optional loss, and farm queueing.  The same
manager objects that serve the unit tests serve here -- handlers run
real crypto inline -- but time is virtual, so a whole channel-switch
storm plays out deterministically in milliseconds of wall clock.

Pieces:

* :class:`VirtualNetwork` -- owns the engine, the latency model, and
  the address table;
* :class:`RpcService` -- an addressable endpoint: named handlers, an
  optional :class:`~repro.sim.station.ServiceStation` for queueing.

Handlers have the signature ``handler(payload, ctx) -> response`` where
``ctx`` carries the caller's address and the virtual time.  Exceptions
raised by handlers travel back to the caller's error callback -- a
denial (e.g. :class:`~repro.errors.PolicyRejectError`) is a *reply*,
not a lost message.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, Optional, Set, Tuple

from repro.errors import RpcDropError, RpcTimeoutError, SimulationError
from repro.sim.engine import Simulator
from repro.sim.network import LatencyModel
from repro.sim.station import ServiceStation
from repro.trace.span import Span, TraceContext, Tracer

ReplyCallback = Callable[[Any], None]
ErrorCallback = Callable[[Exception], None]


@dataclass
class RequestContext:
    """What a handler learns about the call."""

    caller_address: str
    now: float
    #: The RPC span's identity, when the network is traced: handlers
    #: that open spans against the shared tracer nest under it.
    trace: Optional[TraceContext] = None


Handler = Callable[[Any, RequestContext], Any]


class RpcService:
    """One addressable endpoint with named handlers.

    ``station`` models the farm: when set, the handler body runs after
    the request has waited through the farm queue; its service time is
    charged from the station's distribution (the handler's own Python
    runtime is *not* charged -- virtual time and real time are kept
    strictly separate).
    """

    def __init__(
        self,
        address: str,
        region: str = "dc",
        station: Optional[ServiceStation] = None,
    ) -> None:
        self.address = address
        self.region = region
        self.station = station
        self._handlers: Dict[str, Handler] = {}
        self.requests_served = 0
        #: Crash flag (see :mod:`repro.sim.faults`): while True the
        #: process is dead -- requests and replies touching it vanish.
        self.down = False

    def register(self, method: str, handler: Handler) -> None:
        """Bind a handler; rebinding is an error (catch wiring bugs)."""
        if method in self._handlers:
            raise SimulationError(f"handler already bound: {self.address}/{method}")
        self._handlers[method] = handler

    def handler_for(self, method: str) -> Handler:
        handler = self._handlers.get(method)
        if handler is None:
            raise SimulationError(f"no handler {method!r} at {self.address}")
        return handler


class VirtualNetwork:
    """Delivers requests and replies across the virtual WAN."""

    def __init__(
        self,
        sim: Simulator,
        latency: LatencyModel,
        rng: random.Random,
        loss_probability: float = 0.0,
    ) -> None:
        if not 0.0 <= loss_probability <= 1.0:
            raise SimulationError("loss probability must be in [0, 1]")
        self.sim = sim
        self._latency = latency
        self._rng = rng
        self.loss_probability = loss_probability
        self._services: Dict[str, RpcService] = {}
        self._blocked_links: Set[Tuple[str, str]] = set()
        self.messages_sent = 0
        self.messages_lost = 0
        self.messages_dropped_down = 0
        self.messages_blocked = 0
        #: When set, every call records one ``rpc:<method>`` span with
        #: its network/queue/service time split (see repro.trace).
        self.tracer: Optional[Tracer] = None
        #: Cross-simulator escape hatch: an object with ``owns(addr)``
        #: and ``send(...)`` (see repro.parallel.shardstorm.ShardBridge).
        #: Calls to addresses the router owns leave this network
        #: entirely and are delivered by the router's own transport.
        self.remote_router = None

    def attach(self, service: RpcService) -> None:
        """Make a service reachable.

        Attaching over a *down* binding replaces it (a recovered
        process taking back its address); attaching over a live one is
        a wiring bug.
        """
        existing = self._services.get(service.address)
        if existing is not None and not existing.down:
            raise SimulationError(f"address in use: {service.address}")
        self._services[service.address] = service

    def detach(self, address: str) -> Optional[RpcService]:
        """Crash the process at ``address``; returns the dead service.

        The binding stays in the table as a *down* tombstone: callers
        of a crashed (as opposed to never-existing) address get message
        drops and timeouts, not a simulation error.  In-flight messages
        still holding the dead object see its ``down`` flag, so nothing
        queued before the crash leaks into the replacement instance
        attached later at the same address.
        """
        service = self._services.get(address)
        if service is not None:
            service.down = True
        return service

    def set_down(self, address: str) -> RpcService:
        """Crash a service in place: requests to it silently vanish."""
        service = self.service(address)
        service.down = True
        return service

    def set_up(self, address: str) -> RpcService:
        """Bring a crashed (but still attached) service back."""
        service = self.service(address)
        service.down = False
        return service

    def service(self, address: str) -> RpcService:
        service = self._services.get(address)
        if service is None:
            raise SimulationError(f"unreachable address: {address}")
        return service

    # -- partitions -------------------------------------------------
    #
    # A blocked link swallows messages *directionally*: requests check
    # (caller -> dst), replies check (dst -> caller), so a one-way
    # block produces the classic "they heard me but I can't hear them"
    # asymmetry.  ``"*"`` wildcards either side.

    def block_link(self, src: str, dst: str) -> None:
        """Silently drop messages travelling ``src -> dst``."""
        self._blocked_links.add((src, dst))

    def unblock_link(self, src: str, dst: str) -> None:
        self._blocked_links.discard((src, dst))

    def partition(self, group_a: Iterable[str], group_b: Iterable[str]) -> None:
        """Cut both directions between every pair across the groups."""
        for a in group_a:
            for b in group_b:
                self._blocked_links.add((a, b))
                self._blocked_links.add((b, a))

    def heal(self) -> None:
        """Remove every blocked link (the partition ends)."""
        self._blocked_links.clear()

    def _link_blocked(self, src: str, dst: str) -> bool:
        if not self._blocked_links:
            return False
        blocked = self._blocked_links
        return (
            (src, dst) in blocked
            or (src, "*") in blocked
            or ("*", dst) in blocked
        )

    def _one_way(self, src_region: str, dst_region: str) -> float:
        # Model as half an RTT between the two regions/sites.
        return self._latency.sample_rtt(src_region, dst_region) / 2.0

    def _lost(self) -> bool:
        if self.loss_probability <= 0.0:
            return False
        return self._rng.random() < self.loss_probability

    def call(
        self,
        caller_address: str,
        caller_region: str,
        dst_address: str,
        method: str,
        payload: Any,
        on_reply: ReplyCallback,
        on_error: Optional[ErrorCallback] = None,
        timeout: Optional[float] = None,
        on_timeout: Optional[Callable[[], None]] = None,
        trace: Optional[TraceContext] = None,
        fail_fast: bool = False,
    ) -> None:
        """Send a request; exactly one of the callbacks eventually fires
        (or ``on_timeout``, if the request or reply is lost and a
        timeout was set).

        A lost or timed-out exchange surfaces as ``on_timeout()`` when
        that callback is given; otherwise a typed
        :class:`~repro.errors.RpcTimeoutError` goes to ``on_error`` so
        retry policies can tell transport failures from protocol
        rejections without a separate callback.

        ``fail_fast`` models connection refusal: when the destination
        is *known* dead at send time (a crashed-in-place process whose
        TCP stack answers RST), the caller gets an
        :class:`~repro.errors.RpcDropError` after one round trip
        instead of burning the whole timeout.  Messages dropped
        mid-flight still need the timeout -- nobody answers for those.

        ``trace`` parents this call's RPC span explicitly (for callers
        resuming across async hops); without it the tracer's ambient
        context, if any, is used.
        """
        router = self.remote_router
        if router is not None and router.owns(dst_address):
            # Cross-shard call: hand off to the bridge.  Timeouts,
            # tracing, loss, and partitions model the *local* fabric
            # only -- the bridge delivers reliably at its own fixed
            # latency, which is what makes conservative windowed
            # synchronization sound.
            self.messages_sent += 1
            router.send(
                caller_address=caller_address,
                caller_region=caller_region,
                dst_address=dst_address,
                method=method,
                payload=payload,
                on_reply=on_reply,
                on_error=on_error,
                now=self.sim.now,
            )
            return
        service = self.service(dst_address)
        self.messages_sent += 1
        tracer = self.tracer
        rpc_span: Optional[Span] = None
        if tracer is not None:
            parent = trace if trace is not None else tracer.current
            rpc_span = tracer.start_span(
                f"rpc:{method}", now=self.sim.now, parent=parent, kind="rpc"
            )
            rpc_span.annotate("dst", dst_address)

        def drop_span(reason: str, now: float) -> None:
            if rpc_span is not None:
                rpc_span.annotate("dropped", reason)
                tracer.finish(rpc_span, now=now)

        timed_out = {"flag": False, "delivered": False, "event": None}
        if timeout is not None:

            def fire_timeout(sim: Simulator) -> None:
                if not timed_out["delivered"]:
                    timed_out["flag"] = True
                    if rpc_span is not None:
                        rpc_span.annotate("timed_out", True)
                        tracer.finish(rpc_span, now=sim.now)
                    if on_timeout is not None:
                        on_timeout()
                    elif on_error is not None:
                        on_error(RpcTimeoutError(method, dst_address, timeout))

            timed_out["event"] = self.sim.schedule(timeout, fire_timeout)

        if self._link_blocked(caller_address, dst_address):
            self.messages_blocked += 1
            drop_span("link-blocked", self.sim.now)
            return  # partitioned away; only the timeout can save the caller
        if self._lost():
            self.messages_lost += 1
            drop_span("request-lost", self.sim.now)
            return  # request vanished; only the timeout can save the caller
        if service.down:
            self.messages_dropped_down += 1
            drop_span("dst-down", self.sim.now)
            if fail_fast:
                # Connection refused: the remote OS answers with a
                # reset after one round trip, so the caller learns now
                # rather than at the timeout horizon.
                rtt = 2.0 * self._one_way(caller_region, service.region)

                def refuse(sim: Simulator) -> None:
                    if timed_out["flag"] or timed_out["delivered"]:
                        return
                    timed_out["delivered"] = True
                    if timed_out["event"] is not None:
                        timed_out["event"].cancel()
                    if on_error is not None:
                        on_error(RpcDropError(method, dst_address, "dst-down"))

                self.sim.schedule(rtt, refuse)
            return  # dead process; without fail_fast the timeout applies

        request_owd = self._one_way(caller_region, service.region)
        if rpc_span is not None:
            rpc_span.network_time += request_owd

        def deliver(sim: Simulator) -> None:
            def run_handler(sim2: Simulator) -> None:
                if service.down:
                    # The process died while the request was in flight
                    # (or queued): the request dies with it.
                    self.messages_dropped_down += 1
                    drop_span("died-with-request", sim2.now)
                    return
                service.requests_served += 1
                ctx = RequestContext(
                    caller_address=caller_address,
                    now=sim2.now,
                    trace=rpc_span.context if rpc_span is not None else None,
                )
                if rpc_span is not None:
                    tracer.push(rpc_span.context)
                try:
                    response = service.handler_for(method)(payload, ctx)
                except Exception as exc:  # denials travel back as errors
                    if rpc_span is not None:
                        rpc_span.annotate("error", type(exc).__name__)
                    self._send_reply(sim2, service, caller_address, caller_region,
                                     exc, None, on_reply, on_error, timed_out,
                                     rpc_span)
                    return
                finally:
                    if rpc_span is not None:
                        tracer.pop()
                self._send_reply(sim2, service, caller_address, caller_region,
                                 None, response, on_reply, on_error, timed_out,
                                 rpc_span)

            if service.station is not None:

                def queued_done(sim2: Simulator, _sojourn: float) -> None:
                    if rpc_span is not None:
                        rpc_span.queue_time += service.station.last_wait
                        rpc_span.service_time += service.station.last_service
                    run_handler(sim2)

                service.station.submit(on_complete=queued_done)
            else:
                run_handler(sim)

        self.sim.schedule(request_owd, deliver)

    def _send_reply(
        self,
        sim: Simulator,
        service: RpcService,
        caller_address: str,
        caller_region: str,
        error: Optional[Exception],
        response: Any,
        on_reply: ReplyCallback,
        on_error: Optional[ErrorCallback],
        timed_out: dict,
        rpc_span: Optional[Span] = None,
    ) -> None:
        tracer = self.tracer

        def drop_span(reason: str, now: float) -> None:
            if rpc_span is not None:
                rpc_span.annotate("dropped", reason)
                tracer.finish(rpc_span, now=now)

        if self._link_blocked(service.address, caller_address):
            # The partition came up between request and reply: the
            # handler ran (its mutation may be durable) but the caller
            # never hears -- same ambiguity as a pre-reply crash.
            self.messages_blocked += 1
            drop_span("link-blocked", sim.now)
            return
        if self._lost():
            self.messages_lost += 1
            drop_span("reply-lost", sim.now)
            return
        if service.down:
            # Crashed after computing but before the reply hit the
            # wire: the WAL made the mutation durable, the reply is
            # gone -- exactly the ambiguity recovery must tolerate.
            self.messages_dropped_down += 1
            drop_span("died-before-reply", sim.now)
            return
        reply_owd = self._one_way(caller_region, service.region)
        if rpc_span is not None:
            rpc_span.network_time += reply_owd

        def deliver_reply(sim2: Simulator) -> None:
            if service.down:
                # The process died with the reply still in its send
                # path: the handler's mutation is durable, the caller
                # never hears -- the ambiguity recovery must tolerate.
                self.messages_dropped_down += 1
                drop_span("died-with-reply", sim2.now)
                return
            if timed_out["flag"]:
                if rpc_span is not None:
                    rpc_span.annotate("late", True)
                return  # caller gave up already
            timed_out["delivered"] = True
            if timed_out["event"] is not None:
                # Successful delivery: cancel the pending timeout so it
                # neither bloats the engine heap nor drags the clock
                # forward to the timeout horizon.
                timed_out["event"].cancel()
            if rpc_span is not None:
                tracer.finish(rpc_span, now=sim2.now)
            if error is not None:
                if on_error is not None:
                    on_error(error)
                return
            on_reply(response)

        sim.schedule(reply_owd, deliver_reply)
