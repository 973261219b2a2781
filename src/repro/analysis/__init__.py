"""Measurement and reporting: reordering, Table 1 generation."""

from repro.analysis.reorder import ReorderReport, analyze_order
from repro.analysis.tables import (
    TableRow,
    extended_rows,
    paper_table1_rows,
    render_rows,
)

__all__ = [
    "ReorderReport",
    "analyze_order",
    "TableRow",
    "paper_table1_rows",
    "extended_rows",
    "render_rows",
]
