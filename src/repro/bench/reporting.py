"""Plain-text reporting for the benchmark harness (paper-style tables)."""

from __future__ import annotations

from typing import Iterable, Sequence


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    title: str | None = None,
) -> str:
    """Render an aligned text table."""
    materialised = [[_fmt(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in materialised:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append(
        "  ".join(header.ljust(widths[i]) for i, header in enumerate(headers))
    )
    lines.append("  ".join("-" * width for width in widths))
    for row in materialised:
        lines.append(
            "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row))
        )
    return "\n".join(lines)


def _fmt(value: object) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 100:
            return f"{value:.1f}"
        return f"{value:.3f}"
    return str(value)

