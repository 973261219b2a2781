"""§6.3 finding 4: credit-based flow control eliminates congestion loss.

"For channels not providing flow control, e.g., UDP channels, a simple
credit based flow control scheme proposed by Kung et. al. proved very
effective in eliminating packet loss due to channel congestion."

The congestion scenario: two striped UDP channels with *mismatched* rates
while SRR is configured with equal quanta (as it would be if the channel
rates were unknown or changed after setup).  The fast channel runs ahead;
its packets pile up in the receiver's per-channel buffer while logical
reception waits on the slow channel, and the bounded buffer overflows —
packet loss due to congestion, which then desynchronizes the stream.

With FCVC credits (receiver advertises ``consumed + buffer``), the sender
stalls the fast channel instead of overflowing it: zero loss, and the
delivered stream stays exactly FIFO.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.analysis.reorder import analyze_order
from repro.analysis.tables import render_rows
from repro.experiments.socket_harness import (
    SocketTestbedConfig,
    build_socket_testbed,
)
from repro.sim.engine import Simulator


@dataclass
class FlowControlRow:
    label: str
    use_credit: bool
    sent: int
    delivered: int
    buffer_drops: int
    out_of_order: int
    goodput_mbps: float
    credit_stalls: int


@dataclass
class FlowControlResult:
    rows: List[FlowControlRow]

    def render(self) -> str:
        return render_rows(self.rows, [
            ("config", "label", ""), ("sent", "sent", ""),
            ("dlvr", "delivered", ""), ("buf drops", "buffer_drops", ""),
            ("OOO", "out_of_order", ""), ("Mbps", "goodput_mbps", ".2f"),
            ("stalls", "credit_stalls", ""),
        ])


def run_flow_control(
    fast_mbps: float = 10.0,
    slow_mbps: float = 2.0,
    buffer_packets: int = 12,
    duration_s: float = 2.0,
    message_bytes: int = 1000,
    seed: int = 0,
) -> FlowControlResult:
    """Run the congestion scenario with and without FCVC credits."""
    rows: List[FlowControlRow] = []
    for use_credit in (False, True):
        sim = Simulator()
        config = SocketTestbedConfig(
            n_channels=2,
            link_mbps=(fast_mbps, slow_mbps),
            prop_delay_s=(0.5e-3, 0.5e-3),
            loss_rates=(0.0, 0.0),
            message_bytes=message_bytes,
            buffer_packets=buffer_packets,
            use_credit=use_credit,
            seed=seed,
        )
        testbed = build_socket_testbed(sim, config)
        sim.run(until=duration_s)
        report = analyze_order(testbed.delivered_seqs(), testbed.messages_sent)
        goodput = (
            sum(d.size for d in testbed.deliveries) * 8.0 / duration_s / 1e6
        )
        stalls = testbed.sender.credit.stalls if testbed.sender.credit else 0
        rows.append(
            FlowControlRow(
                label="FCVC credits" if use_credit else "no credits",
                use_credit=use_credit,
                sent=testbed.messages_sent,
                delivered=report.delivered,
                buffer_drops=testbed.receiver.buffer_drops,
                out_of_order=report.out_of_order,
                goodput_mbps=goodput,
                credit_stalls=stalls,
            )
        )
    return FlowControlResult(rows)
