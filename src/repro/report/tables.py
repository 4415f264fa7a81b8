"""Plain-text tabulation helpers used by the examples and benchmarks.

No plotting libraries are assumed; every figure of the paper is regenerated
as a text table / series that can be diffed, logged by pytest-benchmark, or
pasted into EXPERIMENTS.md.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Union

Number = Union[int, float]
Cell = Union[str, int, float]


def format_cell(value: Cell, precision: int = 4) -> str:
    """Render one table cell (floats at fixed precision, rest via ``str``)."""
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        if value != value:  # NaN
            return "nan"
        return f"{value:.{precision}g}"
    return str(value)


def union_columns(rows: Sequence[Mapping[str, Cell]]) -> List[str]:
    """The union of the rows' keys in first-appearance order — the shared
    column policy of the ASCII, markdown and CSV renderings."""
    return list(dict.fromkeys(key for row in rows for key in row))


def format_table(
    rows: Sequence[Mapping[str, Cell]],
    columns: Optional[Sequence[str]] = None,
    precision: int = 4,
) -> str:
    """Render a list of dict rows as an aligned ASCII table.

    ``columns`` defaults to the union of the rows' keys in first-appearance
    order, so heterogeneous rows (e.g. an experiment sweep mixing clean
    evaluations with Monte Carlo grid points) keep every column visible.
    """
    rows = list(rows)
    if not rows:
        return "(empty table)"
    if columns is None:
        columns = union_columns(rows)
    rendered = [
        [format_cell(row.get(col, ""), precision) for col in columns] for row in rows
    ]
    widths = [
        max(len(str(col)), *(len(r[i]) for r in rendered)) for i, col in enumerate(columns)
    ]
    header = " | ".join(str(col).ljust(widths[i]) for i, col in enumerate(columns))
    separator = "-+-".join("-" * w for w in widths)
    body = "\n".join(
        " | ".join(r[i].ljust(widths[i]) for i in range(len(columns))) for r in rendered
    )
    return f"{header}\n{separator}\n{body}"


def format_series(
    name: str, xs: Iterable[Cell], ys: Iterable[Number], precision: int = 4
) -> str:
    """Render one (x, y) series as ``name: x=y, x=y, ...`` for logs."""
    pairs = ", ".join(
        f"{format_cell(x, precision)}={format_cell(float(y), precision)}"
        for x, y in zip(xs, ys)
    )
    return f"{name}: {pairs}"


def histogram_rows(
    values, counts, num_bins: int = 16, precision: int = 3
) -> List[Dict[str, Cell]]:
    """Summarise a distribution as histogram rows (used for the Fig. 3a text
    view): ``values`` with how often each occurs."""
    import numpy as np

    values = np.asarray(values, dtype=np.float64).ravel()
    if values.size == 0:
        return []
    counts, edges = np.histogram(values, bins=num_bins, weights=counts)
    total = counts.sum()
    rows: List[Dict[str, Cell]] = []
    for i, count in enumerate(counts):
        rows.append(
            {
                "bin_low": round(float(edges[i]), precision),
                "bin_high": round(float(edges[i + 1]), precision),
                "count": int(count),
                "fraction": round(float(count / total), precision) if total else 0.0,
            }
        )
    return rows


def ascii_bar_chart(
    data: Mapping[str, Number], width: int = 40, precision: int = 3
) -> str:
    """Horizontal ASCII bar chart (for quick visual inspection in examples)."""
    if not data:
        return "(no data)"
    max_value = max(float(v) for v in data.values()) or 1.0
    label_width = max(len(str(k)) for k in data)
    lines = []
    for key, value in data.items():
        bar = "#" * max(0, int(round(width * float(value) / max_value)))
        lines.append(f"{str(key).ljust(label_width)} | {bar} {format_cell(float(value), precision)}")
    return "\n".join(lines)
