"""Plain-text table rendering for benchmark reports."""

from __future__ import annotations

from collections.abc import Sequence


def render_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str | None = None,
) -> str:
    """Render an aligned ASCII table (the harness's 'figure')."""
    cells = [[str(h) for h in headers]] + [[_fmt(c) for c in row] for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]
    lines = []
    if title:
        lines.append(title)
    sep = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(cells[0], widths)))
    lines.append(sep)
    for row in cells[1:]:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _fmt(value: object) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 100:
            return f"{value:.0f}"
        if abs(value) >= 1:
            return f"{value:.2f}"
        return f"{value:.3f}"
    return str(value)


def render_bars(
    labels: Sequence[str],
    values: Sequence[float],
    width: int = 40,
    title: str | None = None,
    unit: str = "x",
) -> str:
    """ASCII bar chart — the closest a text report gets to a figure."""
    if len(labels) != len(values):
        raise ValueError("labels and values must align")
    peak = max(values, default=0.0)
    label_w = max((len(l) for l in labels), default=0)
    lines = [title] if title else []
    for label, value in zip(labels, values):
        bar = "#" * (int(value / peak * width) if peak > 0 else 0)
        lines.append(f"{label.ljust(label_w)} | {bar} {_fmt(value)}{unit}")
    return "\n".join(lines)


def geomean(values: Sequence[float]) -> float:
    """Geometric mean (the paper's headline ratios are geomeans).

    Raises ``ValueError`` on an empty input or a non-positive value: a
    zero ratio has no geometric mean, and dropping it would hide it.
    """
    vals = list(values)
    if not vals:
        raise ValueError("geomean of no values")
    bad = [v for v in vals if not v > 0]
    if bad:
        raise ValueError(f"geomean needs positive values, got {bad}")
    product = 1.0
    for v in vals:
        product *= v
    return product ** (1.0 / len(vals))
