"""Plain-text report rendering for benches and examples.

Benchmarks print the same rows the paper's figures show; these helpers
keep that formatting in one place.
"""

from __future__ import annotations

from typing import Sequence


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Render an aligned plain-text table."""
    columns = [list(map(str, col)) for col in zip(headers, *rows)] if rows else [[h] for h in headers]
    widths = [max(len(cell) for cell in col) for col in columns]
    lines = []
    header_line = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
    lines.append(header_line)
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(str(cell).ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)


def sparkline(values: Sequence[float], width: int = 60) -> str:
    """A crude ASCII sparkline, for eyeballing shapes in bench output."""
    if not values:
        return ""
    blocks = " .:-=+*#%@"
    lo, hi = min(values), max(values)
    span = (hi - lo) or 1.0
    # Downsample to the requested width.
    step = max(1, len(values) // width)
    sampled = [values[i] for i in range(0, len(values), step)]
    return "".join(
        blocks[min(len(blocks) - 1, int((v - lo) / span * (len(blocks) - 1)))]
        for v in sampled
    )

