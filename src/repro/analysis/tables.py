"""Regenerating the paper's Table 1 from scheme capability declarations.

Every striping scheme in the library declares a
:class:`~repro.core.cfq.Capabilities` record.  This module assembles the
feature matrix the paper presents as Table 1, and :func:`render_rows`
draws it — and every experiment's tables — as text.  The ``table1``
benchmark additionally *verifies* the load-sharing and FIFO claims by
micro-simulation (see ``benchmarks/test_bench_table1.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Any, Callable, List, Optional, Sequence, Tuple, Union

from repro.core.cfq import Capabilities


@dataclass(frozen=True)
class TableRow:
    scheme: str
    fifo_delivery: str
    load_sharing: str
    environment: str


_FIFO_LABEL = {
    "guaranteed": "Guaranteed FIFO",
    "quasi": "Quasi-FIFO",
    "may_reorder": "May be non-FIFO",
    "per_flow_fifo": "Per-destination FIFO only",
}

_SHARING_LABEL = {
    "good": "Good",
    "poor": "Poor",
}


def row_for(name: str, capabilities: Capabilities) -> TableRow:
    return TableRow(
        scheme=name,
        fifo_delivery=_FIFO_LABEL.get(
            capabilities.fifo_delivery, capabilities.fifo_delivery
        ),
        load_sharing=_SHARING_LABEL.get(
            capabilities.load_sharing, capabilities.load_sharing
        ),
        environment=capabilities.environment,
    )


def paper_table1_rows() -> List[TableRow]:
    """The five rows of the paper's Table 1, built from our implementations."""
    from repro.baselines.bonding import BondingMux
    from repro.core.srr import SRR, make_rr

    rr = make_rr(2)
    rr_with_header = Capabilities(
        fifo_delivery="guaranteed",
        load_sharing="poor",
        environment="Only if we can add headers",
        modifies_packets=True,
    )
    srr_with_header = Capabilities(
        fifo_delivery="guaranteed",
        load_sharing="good",
        environment="Only if we can add headers",
        modifies_packets=True,
    )
    srr = SRR([500, 500])
    return [
        row_for("Round-Robin, no header", rr.capabilities),
        row_for("Round-Robin with header", rr_with_header),
        row_for("BONDING", BondingMux.capabilities),
        row_for("Fair Queuing algorithm with header", srr_with_header),
        row_for("Fair Queuing algorithm, no header", srr.capabilities),
    ]


def extended_rows() -> List[TableRow]:
    """All schemes implemented in this library (paper rows + section 2.1)."""
    from repro.baselines.address_hash import AddressHashing
    from repro.baselines.mppp import MpppDiscipline
    from repro.baselines.random_selection import RandomSelection
    from repro.baselines.sqf import ShortestQueueFirst

    rows = paper_table1_rows()
    rows.extend(
        [
            row_for("Shortest Queue First (Linux EQL)",
                    ShortestQueueFirst(2).capabilities),
            row_for("Random Selection", RandomSelection(2).capabilities),
            row_for("Address-based Hashing", AddressHashing(2).capabilities),
            row_for("MPPP (RFC 1717)", MpppDiscipline.capabilities),
        ]
    )
    return rows


TABLE1_COLUMNS = (
    ("Scheme", "scheme", ""),
    ("FIFO delivery", "fifo_delivery", ""),
    ("Load sharing (var. len.)", "load_sharing", ""),
    ("Target environment", "environment", ""),
)


def table1_text() -> str:
    """Table 1 over every scheme in the library, as the ``table1`` experiment
    prints it."""
    return render_rows(extended_rows(), TABLE1_COLUMNS)


#: Columns for a single record rendered as ``(quantity, value)`` pairs.
QUANTITY_VALUE = (
    ("quantity", itemgetter(0), ""),
    ("value", itemgetter(1), ""),
)

#: ``(header, source, format spec)``: ``source`` names an attribute of the
#: row or is a callable of it.
Column = Tuple[str, Union[str, Callable[[Any], Any]], str]


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def render_rows(
    rows: Sequence[Any],
    columns: Sequence[Column],
    title: Optional[str] = None,
) -> str:
    """Plain-text table: auto widths, two-space gaps, a dash rule under the
    headers.  Number columns are right-aligned, the rest left-aligned and
    padded to width; ``None`` shows as ``-``."""
    values = [
        [
            getattr(row, source) if isinstance(source, str) else source(row)
            for _, source, _ in columns
        ]
        for row in rows
    ]
    cells = [
        ["-" if value is None else format(value, spec)
         for value, (_, _, spec) in zip(line, columns)]
        for line in values
    ]
    headers = [header for header, _, _ in columns]
    widths = [max(map(len, column)) for column in zip(headers, *cells)]
    right = [
        any(_is_number(line[i]) for line in values)
        and all(_is_number(line[i]) or line[i] is None for line in values)
        for i in range(len(columns))
    ]

    def join(line: Sequence[str]) -> str:
        return "  ".join(
            cell.rjust(width) if flush else cell.ljust(width)
            for cell, width, flush in zip(line, widths, right)
        )

    lines = [title] if title is not None else []
    lines += [join(headers), "  ".join("-" * width for width in widths)]
    lines += [join(line) for line in cells]
    return "\n".join(lines)
