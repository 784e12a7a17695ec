"""Spans, trace contexts, and the virtual-time tracer.

One span covers one causally meaningful interval: a protocol round
(LOGIN1, SWITCH2, KEYPUSH), a whole client operation (LOGIN), one RPC
exchange, or a server-side handler body.  Spans link into trees via
``(trace_id, span_id, parent_id)`` -- the Dapper model -- and carry a
three-way time split alongside the wall (virtual) duration:

* ``queue_time``   -- waited in a farm's FIFO queue;
* ``service_time`` -- charged against a farm server;
* ``network_time`` -- one-way WAN/link delays.

All clocks are *virtual*: the tracer reads the discrete-event engine's
``sim.now`` through an injected ``clock`` callable, so traces recorded
from a storm that simulates hours finish in milliseconds of wall time
and are bit-for-bit deterministic under a fixed seed.

The tracer keeps an explicit context *stack* rather than thread-local
state: the simulation is single-threaded, and handlers run to
completion inside the engine, so pushing an RPC span's context around
the handler call is enough to parent everything the handler does.
"""

from __future__ import annotations

import json
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Any, Callable, ContextManager, Dict, Iterator, List, Optional

from repro.errors import ReproError


class TraceError(ReproError):
    """Misuse of the tracing subsystem (unbalanced stack, bad file)."""


@dataclass(frozen=True)
class TraceContext:
    """The propagated identity of one span: what crosses an RPC hop."""

    trace_id: int
    span_id: int
    parent_id: Optional[int] = None


@dataclass
class Span:
    """One recorded interval in a trace tree."""

    name: str
    kind: str
    trace_id: int
    span_id: int
    parent_id: Optional[int]
    start: float
    end: Optional[float] = None
    queue_time: float = 0.0
    service_time: float = 0.0
    network_time: float = 0.0
    annotations: Dict[str, Any] = field(default_factory=dict)

    @property
    def context(self) -> TraceContext:
        """This span's identity, for propagation to children."""
        return TraceContext(self.trace_id, self.span_id, self.parent_id)

    @property
    def duration(self) -> Optional[float]:
        """Virtual seconds from start to finish; None while open."""
        if self.end is None:
            return None
        return self.end - self.start

    def annotate(self, key: str, value: Any) -> None:
        """Attach one key/value fact to the span."""
        self.annotations[key] = value

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "kind": self.kind,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start": self.start,
            "end": self.end,
            "queue_time": self.queue_time,
            "service_time": self.service_time,
            "network_time": self.network_time,
            "annotations": self.annotations,
        }

    @staticmethod
    def from_dict(data: Dict[str, Any]) -> "Span":
        try:
            return Span(
                name=data["name"],
                kind=data["kind"],
                trace_id=data["trace_id"],
                span_id=data["span_id"],
                parent_id=data["parent_id"],
                start=data["start"],
                end=data["end"],
                queue_time=data.get("queue_time", 0.0),
                service_time=data.get("service_time", 0.0),
                network_time=data.get("network_time", 0.0),
                annotations=data.get("annotations", {}),
            )
        except (KeyError, TypeError) as exc:
            raise TraceError(f"malformed span record: {exc}") from None


#: Sentinel distinguishing "no parent given, inherit the stack" from an
#: explicit ``parent=None`` ("force a new root").
_INHERIT = object()


class Tracer:
    """Records spans against a virtual clock.

    ``clock`` is a zero-argument callable returning the current virtual
    time (typically ``lambda: sim.now``).  Components that know the
    time pass ``now`` explicitly and never consult the clock; the clock
    is the fallback for call sites without a ``now`` in scope (e.g.
    :meth:`RedirectionManager.lookup`).
    """

    def __init__(
        self,
        clock: Optional[Callable[[], float]] = None,
        max_spans: int = 200_000,
    ) -> None:
        self.clock = clock
        self.max_spans = max_spans
        self.spans: List[Span] = []
        self.dropped = 0
        self._next_trace_id = 1
        self._next_span_id = 1
        self._stack: List[TraceContext] = []

    # ------------------------------------------------------------------
    # clocks and context stack
    # ------------------------------------------------------------------

    def now(self, fallback: Optional[float] = None) -> float:
        """Explicit time wins; else the clock; else 0.0."""
        if fallback is not None:
            return fallback
        if self.clock is not None:
            return self.clock()
        return 0.0

    @property
    def current(self) -> Optional[TraceContext]:
        """The innermost active context, if any."""
        return self._stack[-1] if self._stack else None

    def push(self, context: TraceContext) -> None:
        self._stack.append(context)

    def pop(self) -> TraceContext:
        if not self._stack:
            raise TraceError("context stack underflow")
        return self._stack.pop()

    @contextmanager
    def using(self, context: TraceContext) -> Iterator[TraceContext]:
        """Make ``context`` the ambient parent for the body's spans.

        This is how a *resumed* context (one that crossed an RPC hop or
        a retransmission timer) is reinstated without opening a new
        span.
        """
        self.push(context)
        try:
            yield context
        finally:
            self.pop()

    # ------------------------------------------------------------------
    # span lifecycle
    # ------------------------------------------------------------------

    def start_span(
        self,
        name: str,
        now: Optional[float] = None,
        parent: Any = _INHERIT,
        kind: str = "span",
    ) -> Span:
        """Open a span.

        ``parent`` defaults to the innermost stacked context; pass an
        explicit :class:`TraceContext` to parent across an async hop,
        or ``None`` to force a new trace root.
        """
        if parent is _INHERIT:
            parent = self.current
        if parent is None:
            trace_id = self._next_trace_id
            self._next_trace_id += 1
            parent_id: Optional[int] = None
        else:
            trace_id = parent.trace_id
            parent_id = parent.span_id
        span = Span(
            name=name,
            kind=kind,
            trace_id=trace_id,
            span_id=self._next_span_id,
            parent_id=parent_id,
            start=self.now(now),
        )
        self._next_span_id += 1
        if len(self.spans) < self.max_spans:
            self.spans.append(span)
        else:
            # Over budget: the span still works as a causal parent but
            # is not retained, so a runaway storm degrades to partial
            # traces instead of unbounded memory.
            self.dropped += 1
        return span

    def finish(self, span: Span, now: Optional[float] = None) -> None:
        """Close a span; idempotent (first close wins)."""
        if span.end is None:
            span.end = self.now(now)

    @contextmanager
    def span(
        self,
        name: str,
        now: Optional[float] = None,
        kind: str = "span",
        parent: Any = _INHERIT,
        **annotations: Any,
    ) -> Iterator[Span]:
        """Open a span, make it the ambient parent, close on exit.

        An exception escaping the body is annotated (``error`` = the
        exception class name) and re-raised; the span still closes, so
        denial paths show up in the tree rather than vanishing.
        """
        opened = self.start_span(name, now=now, parent=parent, kind=kind)
        opened.annotations.update(annotations)
        self.push(opened.context)
        try:
            yield opened
        except Exception as exc:
            opened.annotations["error"] = type(exc).__name__
            raise
        finally:
            self.pop()
            self.finish(opened, now=self.now(now))

    # ------------------------------------------------------------------
    # inspection and persistence
    # ------------------------------------------------------------------

    def traces(self) -> Dict[int, List[Span]]:
        """Spans grouped by trace id, in recording order."""
        grouped: Dict[int, List[Span]] = {}
        for span in self.spans:
            grouped.setdefault(span.trace_id, []).append(span)
        return grouped

    def reset(self) -> None:
        """Drop all recorded spans (id counters keep advancing)."""
        self.spans = []
        self.dropped = 0
        self._stack = []

    def snapshot(self) -> Dict[str, int]:
        """Counters for the metrics registry."""
        open_spans = sum(1 for s in self.spans if s.end is None)
        return {
            "spans": len(self.spans),
            "open_spans": open_spans,
            "traces": len({s.trace_id for s in self.spans}),
            "dropped": self.dropped,
        }

    def save(self, path: str) -> int:
        """Write the buffer as JSON lines; returns the span count."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.to_dict()) + "\n")
        return len(self.spans)


def load_spans(path: str) -> List[Span]:
    """Read a JSONL trace buffer written by :meth:`Tracer.save`."""
    spans: List[Span] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                data = json.loads(line)
            except json.JSONDecodeError as exc:
                raise TraceError(f"{path}:{line_no}: not JSON: {exc}") from None
            spans.append(Span.from_dict(data))
    return spans


#: The one shared no-op context :func:`maybe_span` returns untraced.
_NO_SPAN = nullcontext()


def maybe_span(
    tracer: Optional[Tracer],
    name: str,
    now: Optional[float] = None,
    kind: str = "span",
    **annotations: Any,
) -> ContextManager[Optional[Span]]:
    """A span when tracing is on, a no-op when it is off.

    Instrumented components hold ``self.tracer = None`` by default, so
    the untraced hot path costs one ``None`` check: every untraced call
    returns the same shared context, which yields ``None``.
    """
    if tracer is None:
        return _NO_SPAN
    return tracer.span(name, now=now, kind=kind, **annotations)
