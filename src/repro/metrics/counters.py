"""The shared shape of every counter block.

Each subsystem keeps its tallies in a small dataclass of numeric
fields (``HotpathCounters``, ``DataplaneCounters``, ...).  They all
need the same three operations -- zero, copy out, diff against an
earlier copy -- so those live here once.

Dependency-free, like the counter modules themselves, so the crypto
and overlay layers can import them without a cycle.
"""

from __future__ import annotations

from dataclasses import fields
from typing import Dict


class CounterBlock:
    """Mixin for a dataclass whose fields are all numeric counters."""

    def reset(self) -> None:
        """Zero every counter (benchmarks call this between phases)."""
        for f in fields(self):
            setattr(self, f.name, f.default)

    def snapshot(self) -> Dict[str, float]:
        """A plain-dict copy, for reports and benchmark output."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def delta_since(self, before: Dict[str, float]) -> Dict[str, float]:
        """Counter growth since a :meth:`snapshot` (storm windows)."""
        return {
            name: value - before.get(name, 0)
            for name, value in self.snapshot().items()
        }
