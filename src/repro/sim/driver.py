"""Event-driven protocol execution: the functional DRM under virtual time.

:class:`AsyncClient` performs the real protocol exchanges -- the same
scripts (:mod:`repro.core.exchange`), hence the same crypto and the
same manager handlers as the synchronous
:class:`~repro.core.client.Client` -- but as chained messages over a
:class:`~repro.sim.rpc.VirtualNetwork`.  Every round's latency is then
an *emergent* quantity: request one-way delay + farm queueing/service +
reply one-way delay, plus the client's own compute charged from a
deterministic cost table (:mod:`repro.sim.costs`).

This is the highest-fidelity rig in the repository: unit tests verify
logic, the timing model gives scale, and this driver gives both at
moderate scale.  Used by the virtual-time integration tests and the
`test_bench_rpc_storm` benchmark.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.core.accounts import secure_hash_password
from repro.core.exchange import HANDLERS, join_script, login_script, switch_script
from repro.core.protocol import JoinAccept, Switch2Response
from repro.crypto.drbg import HmacDrbg
from repro.crypto.rsa import generate_keypair
from repro.errors import ReproError
from repro.metrics.collector import LatencyCollector
from repro.sim.costs import DEFAULT_COSTS
from repro.sim.rpc import RpcService, VirtualNetwork
from repro.trace.span import Span, Tracer


def _wire(network: VirtualNetwork, service: RpcService, server, methods) -> RpcService:
    """Register ``methods`` of ``server`` from the one handler table.

    The observed connection address is taken from the RPC context,
    exactly as a real server reads the socket peer address.
    """
    for method in methods:
        service.register(
            method,
            lambda payload, ctx, call=HANDLERS[method]: call(
                server, payload, ctx.caller_address, ctx.now
            ),
        )
    network.attach(service)
    return service


def wire_user_manager(network: VirtualNetwork, manager, address: str, station=None) -> RpcService:
    """Expose a functional User Manager as an RPC service."""
    service = RpcService(address=address, station=station)
    return _wire(network, service, manager, ("login1", "login2"))


def wire_channel_manager(network: VirtualNetwork, manager, address: str, station=None) -> RpcService:
    """Expose a functional Channel Manager as an RPC service."""
    service = RpcService(address=address, station=station)
    return _wire(network, service, manager, ("switch1", "switch2"))


def wire_peer(network: VirtualNetwork, peer, address: Optional[str] = None) -> RpcService:
    """Expose a peer's join admission as an RPC service."""
    service = RpcService(address=address or f"peer://{peer.peer_id}", region=peer.region)
    return _wire(network, service, peer, ("join",))


class AsyncClient:
    """A client driving the DRM protocols as virtual-time messages.

    Client-side compute (RSA signing, blob decryption, checksum) runs
    for real, but the virtual delay charged before the next message
    leaves comes from the deterministic per-operation table
    :data:`~repro.sim.costs.DEFAULT_COSTS`, so the same seed always
    yields the same transcript.
    """

    def __init__(
        self,
        network: VirtualNetwork,
        email: str,
        password: str,
        version: str,
        image: bytes,
        net_addr: str,
        region: str,
        drbg: HmacDrbg,
        collector: Optional[LatencyCollector] = None,
        key_bits: int = 512,
        tracer: Optional[Tracer] = None,
        round_timeout: Optional[float] = None,
    ) -> None:
        self._network = network
        self.email = email
        self._shp = secure_hash_password(email, password)
        self.version = version
        self.image = bytes(image)
        self.net_addr = net_addr
        self.region = region
        self._key = generate_keypair(drbg.fork(b"async-client-key"), bits=key_bits)
        self.collector = collector or LatencyCollector()
        self.tracer = tracer
        self.user_ticket = None
        self.channel_ticket = None
        self.peers = ()
        self.errors: List[Exception] = []
        #: Per-round timeout.  When set, a lost request/reply surfaces
        #: as an ``RpcTimeoutError`` to ``on_fail`` instead of hanging
        #: forever -- the hook the resilience layer's retry loop uses.
        self.round_timeout = round_timeout

    @property
    def public_key(self):
        return self._key.public_key

    def start_login(
        self,
        um_address: str,
        on_done: Callable[[], None],
        on_fail: Optional[Callable[[Exception], None]] = None,
    ) -> None:
        """Begin the login flow; callbacks fire in virtual time."""

        def adopt(result) -> None:
            self.user_ticket = result[0]
            on_done()

        _Exchange(self, "LOGIN", login_script(self), um_address, adopt, on_fail)

    def start_switch(
        self,
        cm_address: str,
        channel_id: str,
        on_done: Callable[[Switch2Response], None],
        on_fail: Optional[Callable[[Exception], None]] = None,
    ) -> None:
        """Begin the switch flow for ``channel_id``."""
        script = switch_script(self, channel_id=channel_id)
        _Exchange(self, "SWITCH", script, cm_address, self._adopter(on_done), on_fail)

    def start_renewal(
        self,
        cm_address: str,
        on_done: Callable[[Switch2Response], None],
        on_fail: Optional[Callable[[Exception], None]] = None,
    ) -> None:
        """Begin renewal of the held Channel Ticket (Section IV-D)."""
        script = switch_script(self, expiring=self.channel_ticket)
        _Exchange(self, "RENEWAL", script, cm_address, self._adopter(on_done), on_fail)

    def _adopter(self, on_done: Callable[[Switch2Response], None]):
        def adopt(response: Switch2Response) -> None:
            self.channel_ticket = response.ticket
            self.peers = response.peers
            on_done(response)

        return adopt

    def start_join(
        self,
        peer_address: str,
        on_done: Callable[[JoinAccept], None],
        on_fail: Optional[Callable[[Exception], None]] = None,
    ) -> None:
        """Begin the join exchange with one target peer."""
        _Exchange(
            self, "JOIN", join_script(self), peer_address,
            lambda result: on_done(result[0]), on_fail,
        )


class _Exchange:
    """One operation in flight: a protocol script resumed by RPC replies.

    Its bound methods are the network and simulator callbacks, so a
    finished operation holds no reference to itself and is freed
    without the cyclic collector.  Spans across the async hops are
    parented explicitly (the callback chain has no ambient stack).
    """

    __slots__ = (
        "client", "op_name", "script", "address", "adopt", "on_fail",
        "request", "result", "op_span", "round_span", "sent_at",
    )

    def __init__(self, client, op_name, script, address, adopt, on_fail) -> None:
        self.client = client
        self.op_name = op_name
        self.script = script
        self.address = address
        self.adopt = adopt
        self.on_fail = on_fail
        # Priming checks the preconditions: a ProtocolError leaves
        # here, before any span is opened or message sent.
        self.request = next(script)
        self.op_span = self._open_span(op_name, "op", None)
        self.send(client._network.sim)

    def _open_span(self, name: str, kind: str, parent: Optional[Span]) -> Optional[Span]:
        client = self.client
        if client.tracer is None:
            return None
        span = client.tracer.start_span(
            name,
            now=client._network.sim.now,
            parent=parent.context if parent is not None else None,
            kind=kind,
        )
        span.annotate("client", client.email)
        return span

    def _close_span(self, span: Optional[Span], error: Optional[Exception] = None) -> None:
        if span is None:
            return
        if error is not None:
            span.annotate("error", type(error).__name__)
        self.client.tracer.finish(span, now=self.client._network.sim.now)

    def send(self, sim) -> None:
        client, request = self.client, self.request
        self.sent_at = sim.now
        # A one-round operation's round is labelled like the operation.
        name = request.label + "1" if request.label == self.op_name else request.label
        self.round_span = self._open_span(name, "round", self.op_span)
        client._network.call(
            caller_address=client.net_addr,
            caller_region=client.region,
            dst_address=self.address,
            method=request.method,
            payload=request.payload,
            on_reply=self.on_reply,
            on_error=self.fail,
            timeout=client.round_timeout,
            trace=self.round_span.context if self.round_span is not None else None,
        )

    def on_reply(self, reply) -> None:
        client, request = self.client, self.request
        sim = client._network.sim
        client.collector.record(request.label, self.sent_at, sim.now - self.sent_at)
        try:
            self.request = self.script.send(reply)
            proceed = self.send
        except StopIteration as done:
            self.result = done.value
            proceed = self.finish
        except ReproError as exc:
            # The viewer's own failure (wrong password, malformed blob,
            # JOIN refused) fails this operation, not the simulation.
            self.fail(exc)
            return
        self._close_span(self.round_span)
        if request.reply_cost is None:
            proceed(sim)
        else:
            # The compute above ran now (its result feeds the next
            # message), but virtual time advances by its *modeled* cost:
            # charging measured durations would make event orderings
            # nondeterministic run-to-run.
            sim.schedule(DEFAULT_COSTS[request.reply_cost], proceed)

    def finish(self, sim) -> None:
        self._close_span(self.op_span)
        self.adopt(self.result)

    def fail(self, exc: Exception) -> None:
        self._close_span(self.round_span, error=exc)
        self._close_span(self.op_span, error=exc)
        self.client.errors.append(exc)
        if self.on_fail is not None:
            self.on_fail(exc)
