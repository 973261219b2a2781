"""Reliability experiment: best-effort vs selective-repeat ARQ under loss.

Runs the session testbed at a sweep of persistent per-channel loss rates
in both delivery modes and reports, per cell:

* goodput and the fraction of submitted messages delivered — best-effort
  loses exactly the dropped packets, reliable must deliver 100%;
* in-order / exactly-once verdicts (the reliable-mode contract);
* the ARQ cost that bought completeness — retransmissions (split into
  timeout- and SACK-driven), ack traffic, the smoothed RTT the adaptive
  RTO converged to, and backpressure stalls at the bounded window.

The striper underneath is identical in both modes, so the delta is the
reliability layer alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.analysis.tables import render_rows
from repro.experiments.fault_tolerance import build_session_testbed
from repro.sim.engine import Simulator

N_CHANNELS = 3
MESSAGE_BYTES = 1000
LINK_MBPS = 10.0


@dataclass
class ReliabilityRun:
    mode: str
    loss_rate: float
    submitted: int
    delivered: int
    duplicates: int
    in_order: bool
    goodput_mbps: float
    retransmissions: int
    fast_retransmissions: int
    timeouts: int
    acks_sent: int
    srtt_ms: Optional[float]
    backpressure_stalls: int
    drained: bool

    @property
    def completeness(self) -> float:
        return self.delivered / self.submitted if self.submitted else 0.0


_COLUMNS = (
    ("mode", "mode", ""), ("p", "loss_rate", ".0%"),
    ("delivered", "delivered", ""), ("submitted", "submitted", ""),
    ("complete", "completeness", ".1%"), ("Mbps", "goodput_mbps", ".2f"),
    ("in order", "in_order", ""), ("dups", "duplicates", ""),
    ("drained", "drained", ""), ("rtx", "retransmissions", ""),
    ("fast", "fast_retransmissions", ""), ("timeouts", "timeouts", ""),
    ("acks", "acks_sent", ""), ("srtt ms", "srtt_ms", ".1f"),
    ("stalls", "backpressure_stalls", ""),
)


@dataclass
class ReliabilityExperiment:
    rows: List[ReliabilityRun]
    total_s: float

    def render(self) -> str:
        table = render_rows(self.rows, _COLUMNS, title=(
            f"reliability: session stack, {N_CHANNELS} channels at "
            f"{LINK_MBPS:.0f} Mbps, persistent per-channel loss, "
            f"{self.total_s} s runs (ARQ drains after):"
        ))
        reliable = [r for r in self.rows if r.mode == "reliable"]
        complete = all(
            r.completeness == 1.0 and r.in_order and r.duplicates == 0
            for r in reliable
        )
        cost = sum(r.retransmissions for r in reliable)
        return table + (
            f"\n  summary: reliable mode exactly-once in-order at every "
            f"loss rate: {complete}; total retransmissions {cost}"
        )


def run_reliability_run(
    mode: str, loss_rate: float, total_s: float, seed: int
) -> ReliabilityRun:
    sim = Simulator()
    testbed = build_session_testbed(
        sim, n_channels=N_CHANNELS, link_mbps=(LINK_MBPS,),
        loss_rates=(loss_rate,), message_bytes=MESSAGE_BYTES,
        seed=seed, reliability=mode,
    )
    sim.run(until=total_s)
    testbed.source.stop()
    # Give retransmissions time to finish once the source stops.
    sim.run(until=total_s + (2.0 if mode == "reliable" else 0.2))

    seqs = [seq for _, seq in testbed.deliveries]
    arq = testbed.sender.reliable
    arq_rx = testbed.receiver.reliable
    srtt = arq.rto.srtt if arq is not None else None
    return ReliabilityRun(
        mode=mode,
        loss_rate=loss_rate,
        submitted=testbed.source.generated,
        delivered=len(set(seqs)),
        duplicates=len(seqs) - len(set(seqs)),
        in_order=seqs == sorted(seqs),
        goodput_mbps=len(seqs) * MESSAGE_BYTES * 8 / total_s / 1e6,
        retransmissions=arq.stats.retransmissions if arq else 0,
        fast_retransmissions=arq.stats.fast_retransmissions if arq else 0,
        timeouts=arq.stats.timeouts if arq else 0,
        acks_sent=arq_rx.stats.acks_sent if arq_rx else 0,
        srtt_ms=srtt * 1e3 if srtt is not None else None,
        backpressure_stalls=arq.stats.backpressure_stalls if arq else 0,
        drained=(not arq.unacked and not arq.backlog) if arq else True,
    )


def run_reliability(
    loss_rates: Sequence[float] = (0.0, 0.02, 0.05, 0.10, 0.20),
    total_s: float = 1.5,
    seed: int = 7,
) -> ReliabilityExperiment:
    """Best-effort vs reliable mode across persistent loss rates."""
    rows = [
        run_reliability_run(mode, p, total_s, seed)
        for p in loss_rates
        for mode in ("best_effort", "reliable")
    ]
    return ReliabilityExperiment(rows=rows, total_s=total_s)
