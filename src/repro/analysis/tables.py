"""Plain-text table rendering for experiment results.

The benchmark harness regenerates the paper's quantitative claims as tables
printed to stdout (and written to ``benchmarks/results/``).  Rendering is kept
dependency-free: fixed-width columns, one header row, one row per record.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence

from repro.analysis.experiments import ExperimentRecord

__all__ = ["format_table", "render_records", "render_summary"]


def format_table(rows: Sequence[Mapping[str, object]], columns: Optional[List[str]] = None) -> str:
    """Format dict rows as a fixed-width text table."""
    if not rows:
        return "(no rows)"
    if columns is None:
        columns = list(rows[0].keys())
    rendered_rows = [
        {column: _render_cell(row.get(column)) for column in columns} for row in rows
    ]
    widths = {
        column: max(len(column), *(len(row[column]) for row in rendered_rows))
        for column in columns
    }
    header = "  ".join(column.ljust(widths[column]) for column in columns)
    separator = "  ".join("-" * widths[column] for column in columns)
    body = [
        "  ".join(row[column].ljust(widths[column]) for column in columns)
        for row in rendered_rows
    ]
    return "\n".join([header, separator, *body])


def _render_cell(value: object) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "yes" if value else "NO"
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def render_records(
    records: Iterable[ExperimentRecord], columns: Optional[List[str]] = None
) -> str:
    """Render :class:`ExperimentRecord` objects as a table."""
    rows = [record.as_row() for record in records]
    default_columns = [
        "experiment",
        "instance",
        "algorithm",
        "n",
        "Delta",
        "alpha",
        "weight",
        "opt",
        "ratio",
        "guarantee",
        "rounds",
        "ok",
    ]
    return format_table(rows, columns=columns or default_columns)


def render_summary(summary: Dict[str, Dict[str, float]]) -> str:
    """Render the per-algorithm aggregate produced by ``aggregate_records``."""
    rows = []
    for algorithm, stats in sorted(summary.items()):
        row = {"algorithm": algorithm}
        row.update({key: stats[key] for key in ("runs", "mean_ratio", "max_ratio", "mean_rounds", "max_rounds", "violations")})
        rows.append(row)
    return format_table(rows)
