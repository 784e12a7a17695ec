"""Timing spans around the program's layer boundaries, from outside it.

Installed only for a traced pass.  Every wrapped call records one span
``(id, name, start, end, parent, op)`` in memory; ``write_jsonl`` dumps
them when the pass ends.  A layer's *self time* is its span's duration
minus the time its child spans cover, accumulated as spans close, so
the per-layer budget never double-counts nested layers (RSA inside
ticket verify inside SWITCH2 inside ``Client.switch_channel``).

Spans of one harness operation share ``op``; inside the event loop of
the ``rpc`` segment all spans share the id of the ``Simulator.run``
call, because following one request across asynchronous hops needs
spans inside the program, which is a later change.
"""

from __future__ import annotations

import inspect
import json
import sys
from array import array
from time import perf_counter
from typing import Callable, Dict, List

import adapters

_FIELDS = 6  # id, name index, start, end, parent, op


class Tracer:
    def __init__(self) -> None:
        self.names: List[str] = []
        self.calls: List[int] = []
        self.self_s: List[float] = []
        #: Sum of the first integer argument, for boundaries that ask
        #: for it (DRBG output bytes).
        self.arg_sum: List[int] = []
        self.spans = array("d")
        self.enabled = False
        self.op = 0
        self._next_id = 0
        self._stack: List[int] = []
        self._child: List[float] = []
        self._patched: List[tuple] = []

    # -- installation ----------------------------------------------------

    def _name_index(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
            self.arg_sum.append(0)
        return self.names.index(name)

    def install(self) -> None:
        """Wrap every ``use == "wrap"`` boundary of ``adapters.BOUNDARIES``."""
        for row in adapters.wrapped_boundaries():
            owner, attr, original = adapters.resolve(row.target)
            index = self._name_index(f"{row.layer}.{row.boundary}")
            count_arg = row.target.endswith("HmacDrbg.generate")
            if inspect.isclass(owner):
                raw = inspect.getattr_static(owner, attr)
                self._patched.append((owner, attr, raw))
                setattr(owner, attr, self._wrap(raw, index, count_arg))
                continue
            # A module-level function is imported by name elsewhere:
            # replace every alias the program's modules hold.
            wrapped = self._wrap(original, index, count_arg)
            for module in list(sys.modules.values()):
                if module is None or not getattr(module, "__name__", "").startswith("repro"):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, key, original))
                        setattr(module, key, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _wrap(self, fn: Callable, index: int, count_arg: bool) -> Callable:
        tracer = self
        stack, child = self._stack, self._child
        calls, self_s, arg_sum = self.calls, self.self_s, self.arg_sum
        record = self.spans.extend

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            span_id = tracer._next_id
            tracer._next_id = span_id + 1
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            child.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                covered = child.pop()
                duration = end - start
                if child:
                    child[-1] += duration
                calls[index] += 1
                self_s[index] += duration - covered
                if count_arg:
                    arg_sum[index] += args[1]
                record((span_id, index, start, end, parent, tracer.op))

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    # -- reading ---------------------------------------------------------

    def totals(self) -> Dict[str, Dict[str, float]]:
        return {
            name: {
                "calls": self.calls[i],
                "self_s": self.self_s[i],
                "arg_sum": self.arg_sum[i],
            }
            for i, name in enumerate(self.names)
        }

    @property
    def span_count(self) -> int:
        return len(self.spans) // _FIELDS

    def write_jsonl(self, path: str, origin: float = 0.0) -> None:
        """One JSON object per span, times in seconds from ``origin``."""
        spans, names = self.spans, self.names
        with open(path, "w", encoding="utf-8") as handle:
            write = handle.write
            for base in range(0, len(spans), _FIELDS):
                span_id, index, start, end, parent, op = spans[base:base + _FIELDS]
                write(
                    f'{{"id":{int(span_id)},"name":"{names[int(index)]}",'
                    f'"start":{start - origin:.9f},"end":{end - origin:.9f},'
                    f'"parent":{int(parent)},"op":{int(op)}}}\n'
                )


def self_times_from_jsonl(path: str) -> Dict[str, float]:
    """Recompute per-name self time from a trace file (seconds).

    Independent of the online accumulation above; the smoke test uses
    it to check the two agree and that self times sum to at most the
    traced wall.
    """
    duration: Dict[int, float] = {}
    name_of: Dict[int, str] = {}
    covered: Dict[int, float] = {}
    parents: Dict[int, int] = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            span = json.loads(line)
            duration[span["id"]] = span["end"] - span["start"]
            name_of[span["id"]] = span["name"]
            parents[span["id"]] = span["parent"]
    for span_id, parent in parents.items():
        if parent >= 0:
            covered[parent] = covered.get(parent, 0.0) + duration[span_id]
    out: Dict[str, float] = {}
    for span_id, total in duration.items():
        name = name_of[span_id]
        out[name] = out.get(name, 0.0) + total - covered.get(span_id, 0.0)
    return out
