"""FEC recovery experiment: proactive parity vs reactive ARQ vs hybrid.

Sweeps loss rate x loss shape (i.i.d. random vs Gilbert-Elliott bursts)
x recovery mode ({reliable, fec, hybrid}) over the striped endpoint
pipelines and reports, per cell:

* completeness and goodput — pure fec trades a bounded completeness gap
  for zero retransmissions; reliable and hybrid must deliver 100%;
* mean delivery latency — parity repairs locally (no round trip), so fec
  and hybrid recover holes faster than timeout/SACK-driven ARQ;
* the recovery budget spent: retransmissions (reactive), reconstructions
  (proactive), positions abandoned (pure fec only), and the redundancy
  overhead the parity stream adds (~m/k of the data volume).

The striper underneath is identical in every mode, so the deltas are the
recovery strategies alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.analysis.tables import render_rows
from repro.core.srr import SRR
from repro.core.striper import MarkerPolicy
from repro.sim.channel import Channel
from repro.sim.engine import Simulator
from repro.sim.faults import (
    FaultSchedule,
    burst_loss_schedule,
    persistent_loss_schedule,
)
from repro.transport.endpoint import (
    StripeReceiverPipeline,
    StripeSenderPipeline,
)
from repro.transport.fast_path import FastChannelPort

N_CHANNELS = 3
MESSAGE_BYTES = 500
BANDWIDTH_BPS = 8e6
PROP_DELAY = 0.5e-3
QUEUE_LIMIT = 64
FEC_K = 6
FEC_M = 2


@dataclass
class FecRecoveryRun:
    mode: str
    loss_kind: str
    loss_rate: float
    submitted: int
    delivered: int
    in_order: bool
    goodput_mbps: float
    mean_latency_ms: float
    retransmissions: int
    reconstructed: int
    skipped: int
    redundancy_overhead: float

    @property
    def completeness(self) -> float:
        return self.delivered / self.submitted if self.submitted else 0.0


#: the table :meth:`FecRecoveryExperiment.render` draws, one run per line
RUN_COLUMNS = (
    ("mode", "mode", ""), ("loss", "loss_kind", ""),
    ("p", "loss_rate", ".0%"), ("delivered", "delivered", ""),
    ("submitted", "submitted", ""), ("complete", "completeness", ".1%"),
    ("Mbps", "goodput_mbps", ".2f"), ("lat ms", "mean_latency_ms", ".2f"),
    ("overhead", "redundancy_overhead", ".1%"), ("in order", "in_order", ""),
    ("rtx", "retransmissions", ""), ("rebuilt", "reconstructed", ""),
    ("skipped", "skipped", ""),
)


@dataclass
class FecRecoveryExperiment:
    rows: List[FecRecoveryRun]
    total_s: float

    def render(self) -> str:
        table = render_rows(self.rows, RUN_COLUMNS, title=(
            f"fec_recovery: striped pipelines, {N_CHANNELS} channels at "
            f"{BANDWIDTH_BPS / 1e6:.0f} Mbps, k={FEC_K} m={FEC_M}, "
            f"{self.total_s} s runs (recovery drains after):"
        ))
        guaranteed = [r for r in self.rows if r.mode in ("reliable", "hybrid")]
        complete = all(
            r.completeness == 1.0 and r.in_order for r in guaranteed
        )
        pairs = _paired_retransmissions(self.rows)
        saved = sum(arq - hyb for arq, hyb in pairs)
        return table + (
            f"\n  summary: reliable+hybrid complete in-order everywhere: "
            f"{complete}; hybrid saved {saved} retransmissions vs pure ARQ "
            f"across {len(pairs)} matched cells"
        )


def _paired_retransmissions(
    rows: Sequence[FecRecoveryRun],
) -> List[Tuple[int, int]]:
    arq = {
        (r.loss_kind, r.loss_rate): r.retransmissions
        for r in rows if r.mode == "reliable"
    }
    return [
        (arq[(r.loss_kind, r.loss_rate)], r.retransmissions)
        for r in rows
        if r.mode == "hybrid" and (r.loss_kind, r.loss_rate) in arq
    ]


class _Rig:
    """Striped endpoint pipelines over raw channels, one recovery mode."""

    def __init__(self, sim: Simulator, mode: str) -> None:
        self.sim = sim
        self.mode = mode
        self.channels = [
            Channel(
                sim,
                bandwidth_bps=BANDWIDTH_BPS,
                prop_delay=PROP_DELAY,
                queue_limit=QUEUE_LIMIT,
                name=f"ch{i}",
            )
            for i in range(N_CHANNELS)
        ]
        self.ports = [FastChannelPort(ch) for ch in self.channels]
        quanta = [float(MESSAGE_BYTES)] * N_CHANNELS
        sender_options: Dict[str, object] = {"fec": {"k": FEC_K, "m": FEC_M}}
        if mode in ("reliable", "hybrid"):
            sender_options["window_packets"] = 256
        self.sender = StripeSenderPipeline(
            self.ports,
            SRR(quanta),
            marker_policy=MarkerPolicy(interval_rounds=1),
            sim=sim,
            marker_keepalive_s=0.02,
            reliability=mode,
            reliability_options=sender_options,
        )
        self.deliveries: List[Tuple[float, int]] = []
        self.submit_times: Dict[int, float] = {}
        self.receiver = StripeReceiverPipeline(
            N_CHANNELS,
            SRR(quanta),
            mode="marker",
            on_message=lambda p: self.deliveries.append((sim.now, p.seq)),
            sim=sim,
            reliability=mode,
            send_ack=lambda sack: sim.schedule(
                PROP_DELAY, self.sender.on_ack, sack
            ),
            reliability_options={"fec": {"k": FEC_K, "m": FEC_M}},
        )
        for index, channel in enumerate(self.channels):
            channel.on_deliver = self.receiver.channel_handler(index)
            channel.on_space = self.sender.pump

    def start_source(self, interval: float, stop_at: float) -> None:
        sim = self.sim

        def tick() -> None:
            if sim.now >= stop_at:
                self.sender.flush()
                return
            if self.sender.can_submit():
                self.submit_times[self.sender.messages_submitted] = sim.now
                self.sender.send_message(MESSAGE_BYTES)
            sim.schedule(interval, tick)

        sim.schedule_at(0.0, tick)


def run_fec_recovery_run(
    mode: str,
    loss_kind: str,
    loss_rate: float,
    total_s: float,
    seed: int,
) -> FecRecoveryRun:
    sim = Simulator()
    rig = _Rig(sim, mode)
    rig.start_source(interval=0.4e-3, stop_at=total_s)
    if loss_rate <= 0.0:
        schedule = FaultSchedule([])
    elif loss_kind == "burst":
        schedule = burst_loss_schedule(N_CHANNELS, loss_rate, until=total_s)
    else:
        schedule = persistent_loss_schedule(
            N_CHANNELS, loss_rate, until=total_s
        )
    schedule.install(sim, rig.channels, seed=seed)
    # Give retransmissions / group timeouts time to finish afterwards.
    sim.run(until=total_s + (2.5 if mode != "fec" else 1.0))

    seqs = [seq for _, seq in rig.deliveries]
    latencies = [
        now - rig.submit_times[seq]
        for now, seq in rig.deliveries
        if seq in rig.submit_times
    ]
    submitted = rig.sender.messages_submitted
    arq = rig.sender.reliable
    fec_rx = rig.receiver.fec
    fec_tx = rig.sender.fec
    parity_bytes = fec_tx.stats.parity_bytes if fec_tx else 0
    data_bytes = submitted * MESSAGE_BYTES
    return FecRecoveryRun(
        mode=mode,
        loss_kind=loss_kind,
        loss_rate=loss_rate,
        submitted=submitted,
        delivered=len(set(seqs)),
        in_order=seqs == sorted(set(seqs)),
        goodput_mbps=len(seqs) * MESSAGE_BYTES * 8 / total_s / 1e6,
        mean_latency_ms=(
            sum(latencies) / len(latencies) * 1e3 if latencies else 0.0
        ),
        retransmissions=arq.stats.retransmissions if arq else 0,
        reconstructed=fec_rx.stats.reconstructed if fec_rx else 0,
        skipped=fec_rx.stats.skipped if fec_rx else 0,
        redundancy_overhead=parity_bytes / data_bytes if data_bytes else 0.0,
    )


def run_fec_recovery(
    loss_rates: Sequence[float] = (0.01, 0.03, 0.05, 0.10),
    loss_kinds: Sequence[str] = ("random", "burst"),
    total_s: float = 0.8,
    seed: int = 7,
) -> FecRecoveryExperiment:
    """Recovery-mode shootout across loss rates and loss shapes."""
    rows = [
        run_fec_recovery_run(mode, kind, p, total_s, seed)
        for kind in loss_kinds
        for p in loss_rates
        for mode in ("reliable", "fec", "hybrid")
    ]
    return FecRecoveryExperiment(rows=rows, total_s=total_s)
