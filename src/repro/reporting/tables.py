"""ASCII table formatting for benchmark output.

Every benchmark prints the same rows or series the paper reports, with
the paper's reference value alongside the simulator's measurement, so a
reader can eyeball the reproduction without opening the PDF.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

__all__ = ["format_table", "banner"]


def banner(title: str) -> str:
    """A section header for benchmark output."""
    bar = "=" * max(60, len(title) + 4)
    return f"\n{bar}\n  {title}\n{bar}"


def format_table(headers: Sequence[str],
                 rows: Iterable[Sequence],
                 title: Optional[str] = None) -> str:
    """Render rows as a fixed-width ASCII table."""
    rendered: List[List[str]] = [[_cell(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rendered:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def line(cells: Sequence[str]) -> str:
        return "  ".join(c.ljust(widths[i]) for i, c in enumerate(cells))

    out = []
    if title:
        out.append(banner(title))
    out.append(line(list(headers)))
    out.append(line(["-" * w for w in widths]))
    out.extend(line(row) for row in rendered)
    return "\n".join(out)


def _cell(value) -> str:
    if isinstance(value, float):
        if value >= 1000:
            return f"{value:,.0f}"
        if value >= 10:
            return f"{value:.1f}"
        return f"{value:.3f}"
    if isinstance(value, int):
        return f"{value:,}"
    return str(value)
