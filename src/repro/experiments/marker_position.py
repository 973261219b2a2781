"""§6.3 finding 3: marker position within the round matters.

"For a given loss rate, the position of the marker packet within a round
had an effect on the number of out of order deliveries, with the minimum
number of out of order deliveries occurring when the marker was sent either
at the beginning or end of the round."

With N channels, position *k* means the marker batch is emitted when the
round-robin pointer advances into channel *k*; position 0 is the round
boundary (begin = end of the previous round).  We sweep k at a fixed loss
rate with several channels so mid-round positions exist.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.analysis.reorder import analyze_order
from repro.analysis.tables import render_rows
from repro.experiments.socket_harness import (
    SocketTestbedConfig,
    build_socket_testbed,
)
from repro.sim.engine import Simulator


@dataclass
class MarkerPositionRow:
    position: int
    delivered: int
    out_of_order: int

    @property
    def ooo_fraction(self) -> float:
        if self.delivered == 0:
            return 0.0
        return self.out_of_order / self.delivered


@dataclass
class MarkerPositionResult:
    loss_rate: float
    n_channels: int
    rows: List[MarkerPositionRow]

    def boundary_is_near_optimal(self, slack: float = 1.15) -> bool:
        """Position 0 (round boundary) is within ``slack``× of the best."""
        best = min(row.ooo_fraction for row in self.rows)
        boundary = next(r for r in self.rows if r.position == 0).ooo_fraction
        if best == 0:
            return boundary == 0
        return boundary <= best * slack + 1e-9

    def render(self) -> str:
        return render_rows(self.rows, [
            ("position", "position", ""), ("delivered", "delivered", ""),
            ("OOO", "out_of_order", ""), ("OOO frac", "ooo_fraction", ".4f"),
        ], title=f"loss={self.loss_rate:.0%}, {self.n_channels} channels, "
                 f"position 0 = round boundary")


def run_marker_position(
    n_channels: int = 4,
    positions: Optional[Sequence[int]] = None,
    loss_rate: float = 0.1,
    interval_rounds: int = 4,
    duration_s: float = 2.0,
    seeds: Sequence[int] = (0, 1, 2, 3, 4),
) -> MarkerPositionResult:
    """Sweep the marker position; averages OOO over several seeds."""
    if positions is None:
        positions = tuple(range(n_channels))
    rows: List[MarkerPositionRow] = []
    for position in positions:
        delivered = 0
        out_of_order = 0
        for seed in seeds:
            sim = Simulator()
            config = SocketTestbedConfig(
                n_channels=n_channels,
                link_mbps=(10.0,),
                prop_delay_s=tuple(
                    0.5e-3 + 0.4e-3 * i for i in range(n_channels)
                ),
                loss_rates=(loss_rate,),
                marker_interval_rounds=interval_rounds,
                marker_position=position,
                # identical data-loss pattern for every position, so the
                # comparison isolates the marker placement
                data_only_loss=True,
                seed=seed,
            )
            testbed = build_socket_testbed(sim, config)
            sim.run(until=duration_s)
            report = analyze_order(
                testbed.delivered_seqs(), testbed.messages_sent
            )
            delivered += report.delivered
            out_of_order += report.out_of_order
        rows.append(
            MarkerPositionRow(
                position=position,
                delivered=delivered,
                out_of_order=out_of_order,
            )
        )
    return MarkerPositionResult(
        loss_rate=loss_rate, n_channels=n_channels, rows=rows
    )
