"""§6.3 finding 2: more frequent markers ⇒ fewer out-of-order deliveries.

"For a given loss rate, increasing the frequency of marker packets
decreased the occurrence of out of order delivery of packets."

Mechanism: between a desynchronizing loss and the next marker, the receiver
delivers out of order; a shorter marker period shrinks that window.  We
sweep the marker interval (in rounds) at a fixed loss rate and report the
out-of-order fraction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.analysis.reorder import analyze_order
from repro.analysis.tables import render_rows
from repro.experiments.socket_harness import (
    SocketTestbedConfig,
    build_socket_testbed,
)
from repro.sim.engine import Simulator

DEFAULT_INTERVALS = (1, 2, 5, 10, 20, 50)


@dataclass
class MarkerFrequencyRow:
    interval_rounds: int
    delivered: int
    out_of_order: int
    markers_received: int

    @property
    def ooo_fraction(self) -> float:
        if self.delivered == 0:
            return 0.0
        return self.out_of_order / self.delivered


@dataclass
class MarkerFrequencyResult:
    loss_rate: float
    rows: List[MarkerFrequencyRow]

    def render(self) -> str:
        return render_rows(self.rows, [
            ("interval", "interval_rounds", ""),
            ("delivered", "delivered", ""), ("OOO", "out_of_order", ""),
            ("OOO frac", "ooo_fraction", ".4f"),
            ("markers", "markers_received", ""),
        ], title=f"loss={self.loss_rate:.0%}")

    def is_monotone_enough(self, slack: float = 1.3) -> bool:
        """The paper's trend: OOO grows with the interval.

        Checks that the sparsest-marker run has markedly more OOO than the
        densest, and that the sequence is roughly non-decreasing (each step
        may regress by at most ``slack``×).
        """
        fractions = [row.ooo_fraction for row in self.rows]
        if fractions[-1] <= fractions[0]:
            return False
        running_max = 0.0
        for value in fractions:
            if running_max > 0 and value < running_max / slack:
                return False
            running_max = max(running_max, value)
        return True


def run_marker_frequency(
    intervals: Sequence[int] = DEFAULT_INTERVALS,
    loss_rate: float = 0.1,
    duration_s: float = 2.0,
    seed: int = 0,
) -> MarkerFrequencyResult:
    """Sweep the marker interval at a fixed loss rate."""
    rows: List[MarkerFrequencyRow] = []
    for interval in intervals:
        sim = Simulator()
        config = SocketTestbedConfig(
            loss_rates=(loss_rate,),
            marker_interval_rounds=interval,
            seed=seed,
        )
        testbed = build_socket_testbed(sim, config)
        sim.run(until=duration_s)
        report = analyze_order(testbed.delivered_seqs(), testbed.messages_sent)
        stats = testbed.receiver.resequencer.stats
        rows.append(
            MarkerFrequencyRow(
                interval_rounds=interval,
                delivered=report.delivered,
                out_of_order=report.out_of_order,
                markers_received=stats.markers_received,
            )
        )
    return MarkerFrequencyResult(loss_rate=loss_rate, rows=rows)
