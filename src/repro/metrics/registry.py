"""A unified registry for the repo's scattered counter sources.

The hot-path counters, the durability stores, the reliable links, and
the tracer each keep their own statistics.  The registry gives them one
front door: a source registers under a name, and ``snapshot()``
resolves every source to a flat ``{metric: value}`` mapping.  Sources
stay live -- the registry holds references, not copies -- so a snapshot
always reflects current values.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Dict, Mapping

from repro.metrics.dataplane import counters as _dataplane_counters
from repro.metrics.hotpath import counters as _hotpath_counters
from repro.metrics.selection import counters as _selection_counters


class MetricsRegistry:
    """Named metric sources resolved lazily at snapshot time.

    A source may be:

    * a callable returning a mapping (``tracer.snapshot`` style);
    * an object with a ``snapshot()`` method;
    * a dataclass instance (fields become metrics);
    * a plain mapping.
    """

    def __init__(self) -> None:
        self._sources: Dict[str, Any] = {}

    def register(self, name: str, source: Any) -> None:
        """Add (or replace) a metric source under ``name``."""
        self._sources[name] = source

    def unregister(self, name: str) -> None:
        self._sources.pop(name, None)

    def sources(self) -> Dict[str, Any]:
        return dict(self._sources)

    @staticmethod
    def _resolve(source: Any) -> Dict[str, Any]:
        if dataclasses.is_dataclass(source) and not isinstance(source, type):
            return dataclasses.asdict(source)
        if isinstance(source, Mapping):
            return dict(source)
        if hasattr(source, "snapshot") and callable(source.snapshot):
            source = source.snapshot()
        elif callable(source):
            source = source()
        else:
            raise TypeError(f"cannot resolve metric source: {source!r}")
        if dataclasses.is_dataclass(source) and not isinstance(source, type):
            return dataclasses.asdict(source)
        if isinstance(source, Mapping):
            return dict(source)
        raise TypeError(f"metric source resolved to non-mapping: {source!r}")

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """Resolve every source to ``{source: {metric: value}}``."""
        return {name: self._resolve(src) for name, src in sorted(self._sources.items())}


#: Process-wide default registry; the hot-path and data-plane
#: counters are always in.
registry = MetricsRegistry()
registry.register("hotpath", _hotpath_counters)
registry.register("dataplane", _dataplane_counters)
registry.register("selection", _selection_counters)
