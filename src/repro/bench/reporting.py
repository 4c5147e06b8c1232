"""Small reporting helpers shared by the benchmark harnesses."""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Dict, Iterable, Optional, Sequence

def linear_fit_r_squared(xs: Sequence[float], ys: Sequence[float]) -> float:
    """R^2 of the least-squares line through (xs, ys).

    The paper reports R^2 = 0.9985 (TPC-W) and 0.9868 (SCADr) for throughput
    versus cluster size; the scaling experiments reproduce that statistic.
    """
    if len(xs) != len(ys) or len(xs) < 2:
        raise ValueError("need at least two matching points")
    n = len(xs)
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    sxx = sum((x - mean_x) ** 2 for x in xs)
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    if sxx == 0:
        raise ValueError("x values are constant")
    slope = sxy / sxx
    intercept = mean_y - slope * mean_x
    ss_res = sum((y - (slope * x + intercept)) ** 2 for x, y in zip(xs, ys))
    ss_tot = sum((y - mean_y) ** 2 for y in ys)
    if ss_tot == 0:
        return 1.0
    return 1.0 - ss_res / ss_tot


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """Render a plain-text table (used by benchmark scripts and examples)."""
    rendered_rows = [[_render_cell(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rendered_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * widths[i] for i in range(len(headers))),
    ]
    for row in rendered_rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def _render_cell(cell: object) -> str:
    if isinstance(cell, float):
        if math.isnan(cell):
            return "nan"
        return f"{cell:.1f}" if abs(cell) >= 10 else f"{cell:.2f}"
    return str(cell)


def render_payload(payload: Dict, indent: int = 0) -> str:
    """Plain-text rendering of a JSON summary, so what is printed is what is saved.

    Scalars print as ``key: value``, a list of records as a table under its
    key, and a nested dict as an indented section.
    """
    pad = "  " * indent
    lines = []
    for key, value in payload.items():
        if isinstance(value, dict) and value:
            lines += [f"{pad}{key}:", render_payload(value, indent + 1)]
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            headers = list(value[0])
            table = format_table(
                headers, [[row.get(header) for header in headers] for row in value]
            )
            lines.append(f"{pad}{key}:")
            lines += [f"{pad}  {line}" for line in table.splitlines()]
        else:
            lines.append(f"{pad}{key}: {_render_cell(value)}")
    return "\n".join(lines)


def render_with_incident(payload: Dict, incident: Optional[object]) -> str:
    """The summary as text, then the incident report's rendered timeline.

    A CI log is often the only thing anyone reads, so the timeline goes to
    stdout although the report itself is saved as a detail file.
    """
    text = render_payload(payload)
    return text if incident is None else f"{text}\n\n{incident.render()}"


def save_results(name: str, payload: Dict, directory: str = "results") -> Path:
    """Persist experiment output as JSON under ``results/`` for later inspection."""
    path = Path(directory)
    path.mkdir(parents=True, exist_ok=True)
    target = path / f"{name}.json"
    with open(target, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True, default=str)
    return target
