"""Scalability in the channel count — the claim in the paper's title.

The paper argues its protocol is "scalable enough to impose little
overhead": SRR costs O(1) per packet regardless of N, markers cost one tiny
packet per channel per interval, and recovery is per-channel (no global
sequence space).  This experiment measures, for N = 2..16 equal links:

* aggregate goodput (should grow ≈ linearly with N),
* delivery remains exactly FIFO,
* marker bandwidth overhead (stays a small, roughly constant fraction),
* resynchronization time after a loss burst (stays within a few marker
  periods — it does not grow with N, because every channel resynchronizes
  independently; condition C1 is the only global coupling),
* Jain's fairness index across per-channel data carried (SRR's equal-share
  guarantee surfaced end to end: should sit at ~1.0 for every N),
* the receiver's high-water-mark memory (max resequencer packets buffered
  — the bounded-memory claim, which must not grow with N on clean links).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.analysis.reorder import analyze_order
from repro.core.fairness import jain_fairness_index
from repro.experiments.socket_harness import (
    SocketTestbedConfig,
    build_socket_testbed,
)
from repro.sim.engine import Simulator

DEFAULT_CHANNEL_COUNTS = (2, 4, 8, 16)


@dataclass
class ScalabilityRow:
    n_channels: int
    goodput_mbps: float
    per_channel_mbps: float
    out_of_order: int
    marker_overhead_fraction: float
    recovery_time_s: Optional[float]
    #: Jain's fairness index across per-channel data carried: 1.0 means
    #: the striper spread the stream perfectly evenly over the N links.
    jain_channels: float = 1.0
    #: receiver high-water-mark memory (max packets ever buffered in the
    #: resequencer) — the paper's bounded-memory claim, per channel count.
    receiver_hwm_packets: int = 0

    def render(self) -> str:
        recovery = (
            f"{self.recovery_time_s * 1e3:7.1f} ms"
            if self.recovery_time_s is not None else "      n/a"
        )
        return (
            f"{self.n_channels:>4} {self.goodput_mbps:>8.2f} "
            f"{self.per_channel_mbps:>8.2f} {self.out_of_order:>6} "
            f"{self.marker_overhead_fraction:>9.4%} {recovery} "
            f"{self.jain_channels:>6.4f} {self.receiver_hwm_packets:>5}"
        )


@dataclass
class ScalabilityResult:
    rows: List[ScalabilityRow]

    def render(self) -> str:
        header = (
            f"{'N':>4} {'Mbps':>8} {'per-ch':>8} {'OOO':>6} "
            f"{'markers':>9} {'recovery':>10} {'jain':>6} {'hwm':>5}"
        )
        return "\n".join(
            [header, "-" * len(header)]
            + [row.render() for row in self.rows]
        )

    def scaling_efficiency(self) -> float:
        """Per-channel goodput at max N relative to min N (1.0 = linear)."""
        first, last = self.rows[0], self.rows[-1]
        if first.per_channel_mbps == 0:
            return 0.0
        return last.per_channel_mbps / first.per_channel_mbps


def run_scalability(
    channel_counts: Sequence[int] = DEFAULT_CHANNEL_COUNTS,
    link_mbps: float = 10.0,
    duration_s: float = 1.5,
    message_bytes: int = 1000,
    with_recovery_probe: bool = True,
    seed: int = 0,
) -> ScalabilityResult:
    """Measure throughput / ordering / overhead / recovery vs channel count.

    Every testbed runs over direct channel ports
    (:mod:`repro.transport.fast_path`): nothing here needs credits, a
    receiver cap or the UDP/IP stack, and deliveries are property-tested
    identical to the stack path's.
    """
    rows: List[ScalabilityRow] = []
    for n in channel_counts:

        def config(loss_rate: float) -> SocketTestbedConfig:
            return SocketTestbedConfig(
                n_channels=n,
                link_mbps=(link_mbps,),
                prop_delay_s=tuple(0.5e-3 + 0.1e-3 * i for i in range(n)),
                loss_rates=(loss_rate,),
                message_bytes=message_bytes,
                marker_interval_rounds=1,
                source_backlog=4 * n,
                seed=seed,
                fast=True,
            )

        # --- clean throughput run ----------------------------------------
        sim = Simulator()
        testbed = build_socket_testbed(sim, config(0.0))
        sim.run(until=duration_s)
        report = analyze_order(testbed.delivered_seqs(), testbed.messages_sent)
        goodput = (
            sum(d.size for d in testbed.deliveries) * 8 / duration_s / 1e6
        )
        marker_bytes = 0
        data_bytes = 0
        per_channel_data: List[float] = []
        for port in testbed.sender.ports:
            marker_bytes += port.sent_markers * 32
            data_bytes += port.sent_data * message_bytes
            per_channel_data.append(float(port.sent_data))
        overhead = marker_bytes / data_bytes if data_bytes else 0.0
        jain = jain_fairness_index(per_channel_data)
        hwm = int(testbed.receiver.receiver_state().get("max_buffered", 0))

        # --- recovery probe: a loss burst, then measure resync time ------
        recovery_time: Optional[float] = None
        if with_recovery_probe:
            sim2 = Simulator()
            probe = build_socket_testbed(sim2, config(0.3))
            loss_stop = 0.5
            probe.stop_losses_at(loss_stop)
            sim2.run(until=loss_stop + 1.0)
            # recovery time = last out-of-order delivery after loss_stop
            max_seen = -1
            last_violation_t: Optional[float] = None
            for delivery in probe.deliveries:
                if delivery.seq < max_seen and delivery.time > loss_stop:
                    last_violation_t = delivery.time
                max_seen = max(max_seen, delivery.seq)
            recovery_time = (
                (last_violation_t - loss_stop) if last_violation_t else 0.0
            )

        rows.append(
            ScalabilityRow(
                n_channels=n,
                goodput_mbps=goodput,
                per_channel_mbps=goodput / n,
                out_of_order=report.out_of_order,
                marker_overhead_fraction=overhead,
                recovery_time_s=recovery_time,
                jain_channels=jain,
                receiver_hwm_packets=hwm,
            )
        )
    return ScalabilityResult(rows)
