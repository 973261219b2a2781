"""Chaos experiment: randomized fault schedules vs the full lifecycle stack.

Each run installs a seeded :class:`~repro.sim.faults.FaultPlan` schedule on
the session testbed's channels with the complete fault-tolerance machinery
armed — receiver-side :class:`ChannelFailureDetector` (silence watchdog +
probe gating + flap damping), sender-side :class:`SenderHealthMonitor`
(queue-stall exclusion), and the :class:`ChannelProber` (backed-off probes
and rejoin RESETs).  Reported per seed, then aggregated:

* throughput in the pre-fault, fault, and recovered windows (the chaos
  window degrades the bundle; afterwards it must come back);
* recovery latency — how long after the last fault ceases the delivery
  stream stays out of order (Theorem 5.1 bounds this by one one-way
  delay once the markers resynchronize);
* the lifecycle event counts (failures, revivals, probes, rejoins,
  resets) and the injected-fault totals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.analysis.tables import render_rows

from repro.experiments.fault_tolerance import build_session_testbed
from repro.sim.engine import Simulator
from repro.sim.faults import FAULT_START_S, FaultPlan
from repro.transport.endpoint import ChannelFailureDetector, SenderHealthMonitor

N_CHANNELS = 3
MESSAGE_BYTES = 1000
FAULTS_CEASE = 1.1
SETTLE_S = 0.3


@dataclass
class ChaosRun:
    seed: int
    kinds: Tuple[str, ...]
    goodput_before: float
    goodput_during: float
    goodput_after: float
    recovery_latency: float
    delivered: int
    duplicates: int
    failures: int
    revivals: int
    probes_sent: int
    rejoins: int
    resets: int
    faults_injected: int


_COLUMNS = (
    ("seed", "seed", ""),
    ("before Mbps", "goodput_before", ".2f"),
    ("during Mbps", "goodput_during", ".2f"),
    ("after Mbps", "goodput_after", ".2f"),
    ("settle ms", lambda r: r.recovery_latency * 1e3, ".1f"),
    ("fail", "failures", ""), ("revive", "revivals", ""),
    ("rejoin", "rejoins", ""), ("resets", "resets", ""),
    ("dups", "duplicates", ""),
    ("faults", lambda r: ",".join(r.kinds) or "-", ""),
)


@dataclass
class ChaosExperiment:
    rows: List[ChaosRun]
    total_s: float

    def render(self) -> str:
        table = render_rows(self.rows, _COLUMNS, title=(
            f"chaos: seeded fault schedules on {N_CHANNELS} channels, "
            f"faults in [{FAULT_START_S}, {FAULTS_CEASE}] s, "
            f"run {self.total_s} s, full lifecycle armed:"
        ))
        degraded = [r for r in self.rows if r.goodput_during < r.goodput_before]
        recovered = [
            r for r in self.rows
            if r.goodput_after > 0.8 * r.goodput_before
        ]
        worst = max(r.recovery_latency for r in self.rows)
        # duplicate-injection runs add copies by definition; the
        # exactly-once claim applies to every other schedule.
        clean = [r for r in self.rows if "duplicate" not in r.kinds]
        return table + (
            f"\n  summary: {len(degraded)}/{len(self.rows)} runs degraded "
            f"during faults, {len(recovered)}/{len(self.rows)} recovered to "
            f">80% of baseline, worst reorder-settle "
            f"{worst * 1e3:.1f} ms, exactly-once outside duplicate "
            f"injection: {all(r.duplicates == 0 for r in clean)}"
        )


def _recovery_latency(
    deliveries: List[Tuple[float, int]], cease: float
) -> float:
    """Seconds past ``cease`` until deliveries are in order for good."""
    last_ooo = cease
    high = -1
    for t, seq in deliveries:
        if seq < high and t > cease:
            last_ooo = t
        high = max(high, seq)
    return last_ooo - cease


def run_chaos_run(seed: int, total_s: float) -> ChaosRun:
    sim = Simulator()
    detector = ChannelFailureDetector(sim, silence_threshold=0.15)
    monitor = SenderHealthMonitor(sim)
    testbed = build_session_testbed(
        sim, n_channels=N_CHANNELS, link_mbps=(10.0,), loss_rates=(0.0,),
        message_bytes=MESSAGE_BYTES, failure_detector=detector,
        health_monitor=monitor,
        prober=True,
    )
    plan = FaultPlan(
        n_channels=N_CHANNELS,
        cease_by=FAULTS_CEASE,
        max_events=5,
    )
    schedule = plan.schedule(seed)
    installed = schedule.install(
        sim, [link.ab for link in testbed.links], seed=seed
    )
    sim.run(until=total_s)

    cease = schedule.last_fault_end
    seqs = [seq for _, seq in testbed.deliveries]
    return ChaosRun(
        seed=seed,
        kinds=schedule.kinds_used(),
        goodput_before=testbed.goodput_mbps(0.1, FAULT_START_S, MESSAGE_BYTES),
        goodput_during=testbed.goodput_mbps(FAULT_START_S, cease, MESSAGE_BYTES),
        goodput_after=testbed.goodput_mbps(
            cease + SETTLE_S, total_s, MESSAGE_BYTES
        ),
        recovery_latency=_recovery_latency(testbed.deliveries, cease),
        delivered=len(seqs),
        duplicates=len(seqs) - len(set(seqs)),
        failures=len(detector.failures_reported),
        revivals=len(detector.revivals_reported),
        probes_sent=testbed.prober.probes_sent,
        rejoins=testbed.prober.rejoins,
        resets=testbed.receiver_session.resets_seen,
        faults_injected=installed.total_faulted,
    )


def run_chaos(seeds: int = 8, total_s: float = 2.5) -> ChaosExperiment:
    """Randomized chaos schedules against the full lifecycle stack."""
    rows = [run_chaos_run(seed, total_s) for seed in range(seeds)]
    return ChaosExperiment(rows=rows, total_s=total_s)
