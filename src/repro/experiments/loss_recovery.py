"""§6.3 finding 1: marker resynchronization restores FIFO after loss stops.

"For arbitrary levels of packet loss (measured up to 80%), the marker based
resynchronization scheme was able to restore FIFO delivery once packet
losses stopped."

We run the striped-UDP testbed with Bernoulli loss on every channel for a
loss phase, then switch the loss off and keep sending.  For each loss rate
we report out-of-order deliveries during the lossy phase (quasi-FIFO at
work) and after a recovery allowance (must be zero).
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

DEFAULT_LOSS_RATES = (0.05, 0.1, 0.2, 0.4, 0.6, 0.8)


@dataclass
class LossRecoveryRow:
    loss_rate: float
    sent: int
    delivered: int
    lost: int
    ooo_total: int
    ooo_after_recovery: int
    markers_received: int
    channel_skips: int

    @property
    def recovered(self) -> bool:
        return self.ooo_after_recovery == 0


@dataclass
class LossRecoveryResult:
    rows: List[LossRecoveryRow]

    @property
    def all_recovered(self) -> bool:
        return all(row.recovered for row in self.rows)

    def render(self) -> str:
        return render_rows(self.rows, [
            ("loss", "loss_rate", ".2f"), ("sent", "sent", ""),
            ("dlvr", "delivered", ""), ("lost", "lost", ""),
            ("OOO(lossy)", lambda r: r.ooo_total - r.ooo_after_recovery, ""),
            ("OOO(after)", "ooo_after_recovery", ""),
            ("markers", "markers_received", ""),
            ("skips", "channel_skips", ""), ("FIFO?", "recovered", ""),
        ])


def run_loss_recovery(
    loss_rates: Sequence[float] = DEFAULT_LOSS_RATES,
    loss_phase_s: float = 1.0,
    total_s: float = 2.5,
    recovery_allowance_s: float = 0.2,
    marker_interval_rounds: int = 1,
    seed: int = 0,
) -> LossRecoveryResult:
    """Sweep loss rates; verify FIFO restoration after losses stop."""
    rows: List[LossRecoveryRow] = []
    for loss in loss_rates:
        sim = Simulator()
        config = SocketTestbedConfig(
            loss_rates=(loss,),
            marker_interval_rounds=marker_interval_rounds,
            seed=seed,
        )
        testbed = build_socket_testbed(sim, config)
        testbed.stop_losses_at(loss_phase_s)
        sim.run(until=total_s)
        report = analyze_order(testbed.delivered_seqs(), testbed.messages_sent)
        after = [
            d.seq
            for d in testbed.deliveries_after(loss_phase_s + recovery_allowance_s)
        ]
        after_report = analyze_order(after)
        stats = testbed.receiver.resequencer.stats
        rows.append(
            LossRecoveryRow(
                loss_rate=loss,
                sent=testbed.messages_sent,
                delivered=report.delivered,
                lost=report.missing,
                ooo_total=report.out_of_order,
                ooo_after_recovery=after_report.out_of_order,
                markers_received=stats.markers_received,
                channel_skips=stats.channel_skips,
            )
        )
    return LossRecoveryResult(rows)
