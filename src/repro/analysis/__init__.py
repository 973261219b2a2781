"""Measurement and reporting: reordering, Table 1 generation."""

from repro.analysis.reorder import ReorderReport, analyze_order
from repro.analysis.tables import (
    TableRow,
    extended_rows,
    paper_table1_rows,
    render_rows,
    row_for,
)

__all__ = [
    "ReorderReport",
    "analyze_order",
    "TableRow",
    "row_for",
    "paper_table1_rows",
    "extended_rows",
    "render_rows",
]
