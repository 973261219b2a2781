"""Measurement and reporting: throughput, reordering, Table 1 generation."""

from repro.analysis.metrics import (
    DeliveryLog,
    LatencyStats,
    ThroughputWindow,
    mbps,
    percentile,
)
from repro.analysis.reorder import ReorderReport, analyze_order, fifo_after_index
from repro.analysis.tables import (
    TableRow,
    extended_rows,
    paper_table1_rows,
    render_rows,
    row_for,
)

__all__ = [
    "mbps",
    "ThroughputWindow",
    "LatencyStats",
    "percentile",
    "DeliveryLog",
    "ReorderReport",
    "analyze_order",
    "fifo_after_index",
    "TableRow",
    "row_for",
    "paper_table1_rows",
    "extended_rows",
    "render_rows",
]
