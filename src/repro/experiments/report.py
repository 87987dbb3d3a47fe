"""Plain-text report rendering shared by the experiment modules.

Each experiment returns rows of python primitives; these helpers render
them as aligned tables that mirror the paper's tables/figure captions,
which is what `repro.cli sweep --experiment X` prints above the study's
claim verdicts.
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence


def format_table(
    title: str,
    headers: Sequence[str],
    rows: Iterable[Sequence[Any]],
    floatfmt: str = "{:.3g}",
) -> str:
    """Render an aligned monospace table with a title line."""
    rendered_rows = [[_render(cell, floatfmt) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rendered_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [title, "-" * len(title)]
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    for row in rendered_rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def format_series(title: str, series: dict[str, list[tuple[float, float]]]) -> str:
    """Render named (x, y) series compactly (loss-vs-time curves)."""
    lines = [title, "-" * len(title)]
    for name, points in series.items():
        if not points:
            lines.append(f"{name}: (empty)")
            continue
        head = " ".join(f"({x:.3g},{y:.3g})" for x, y in points[:6])
        tail = "" if len(points) <= 6 else f" ... ({points[-1][0]:.3g},{points[-1][1]:.3g})"
        lines.append(f"{name} [{len(points)} pts]: {head}{tail}")
    return "\n".join(lines)


def _render(cell: Any, floatfmt: str) -> str:
    if cell is None:
        return "N/A"
    if isinstance(cell, bool):
        return "yes" if cell else "no"
    if isinstance(cell, float):
        return floatfmt.format(cell)
    return str(cell)


def ratio(numerator: float | None, denominator: float | None) -> float | None:
    """Safe ratio used for the slowdown/cost columns of Table 1."""
    if numerator is None or denominator in (None, 0):
        return None
    return numerator / denominator
