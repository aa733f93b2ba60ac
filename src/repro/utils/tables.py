"""Plain-text table rendering for experiment reports.

The benchmark harness prints the same rows the paper's tables report;
this module renders them as aligned monospace tables (GitHub-flavoured
markdown compatible) without any third-party dependency.
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

__all__ = ["format_table"]


def _cell(value: Any) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return format(value, ".2f")
    return str(value)


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[Any]],
    title: str | None = None,
) -> str:
    """Render an aligned ASCII table.

    ``rows`` may contain strings, numbers, booleans or ``None`` (shown
    as ``-``).  Floats are shown with two decimals.
    """
    str_rows = [[_cell(v) for v in row] for row in rows]
    for i, row in enumerate(str_rows):
        if len(row) != len(headers):
            raise ValueError(f"row {i} has {len(row)} cells, expected {len(headers)}")
    widths = [len(h) for h in headers]
    for row in str_rows:
        for j, cell in enumerate(row):
            widths[j] = max(widths[j], len(cell))
    sep = "+".join("-" * (w + 2) for w in widths)
    lines = []
    if title:
        lines.append(title)
    lines.append(sep)
    lines.append("|".join(f" {h:<{w}} " for h, w in zip(headers, widths)))
    lines.append(sep)
    for row in str_rows:
        lines.append("|".join(f" {c:>{w}} " for c, w in zip(row, widths)))
    lines.append(sep)
    return "\n".join(lines)
