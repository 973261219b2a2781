"""Repetitions, the correctness gate, and the metrics of one workload run.

One *repetition* generates its inputs from ``(seed, repetition index)``,
builds a fresh rig (both timed as set-up), runs it (the timed region) and
checks every delivery.  A *run* is one process: a 10%-scale warm-up, then
repetitions 0, 1, 2, ... for the requested number of seconds, reduced to
one number per metric (see :data:`REDUCE`).  Repetition ``i`` of two runs
with the same seed has the same inputs, which is what ``compare.py`` pairs
on.
"""

from __future__ import annotations

import gc
import hashlib
import resource
import sys
from array import array
from dataclasses import dataclass
from statistics import fmean, median, quantiles
from time import perf_counter, perf_counter_ns
from typing import Any, Callable, Dict, List, Optional

from perfbench.metrics import END_TO_END, SIMULATED
from perfbench.rigs import Rig, Workload, make_inputs
from perfbench.rungs import checkpoint_us, isolated_rungs
from perfbench.spans import SpanLog

WARMUP_SCALE = 0.1
MIN_REPS = 5

#: what ``setup_s`` imports, and how far apart it samples the import once
#: it has :data:`MIN_REPS` samples: the sandbox's noise comes in bursts of
#: a few seconds, so samples spread over the run leave a quarter clean
STACK_PACKAGES = ("repro.sim", "repro.core", "repro.transport", "repro.workloads")
IMPORT_EVERY_S = 1.5


def lower_quartile(samples: List[float]) -> float:
    return quantiles(samples, n=4)[0]


#: How a run's samples become the run's number, by the kind of variation
#: each has.  The simulated metrics have no measurement noise, only input
#: variation (bimodal for the lossy tail latencies), so the mean over the
#: repetitions' inputs is the steady summary.  Wall time on the sandbox has
#: one-sided noise, bursts of up to +50% that last seconds, so the lower
#: quartile is; the paired ratios of ``compare.py`` use every sample.
#: ``setup_s`` and ``peak_rss_mb`` have one sample per run.
REDUCE: Dict[str, Callable[[List[float]], float]] = {
    "setup_s": max,
    "wall_ns_per_pkt": lower_quartile,
    "peak_rss_mb": max,
    **{name: fmean for name in SIMULATED},
}


def time_stack_import() -> float:
    """Seconds one fresh import of :data:`STACK_PACKAGES` takes.

    The live ``repro`` modules are set aside and put back afterwards, so
    the rigs never see the fresh copies, which are dropped.
    """
    live = {
        name: module for name, module in sys.modules.items()
        if name.split(".")[0] == "repro"
    }
    for name in live:
        del sys.modules[name]
    start = perf_counter()
    for package in STACK_PACKAGES:
        __import__(package)
    elapsed = perf_counter() - start
    for name in [m for m in sys.modules if m.split(".")[0] == "repro"]:
        del sys.modules[name]
    sys.modules.update(live)
    gc.collect()
    return elapsed


class GateError(AssertionError):
    """A correctness gate failed; the message says which."""


@dataclass
class Rep:
    """What one repetition measured."""

    setup_s: float
    wall_ns: int
    attempted: int
    delivered: int
    fingerprint: str
    simulated: Dict[str, float]
    counts: Dict[str, float]
    retained_blocks: int

    @property
    def wall_ns_per_pkt(self) -> float:
        return self.wall_ns / self.delivered


def run_rep(
    workload: Workload,
    seed: int,
    rep: int,
    scale: float,
    log: Optional[SpanLog] = None,
    at_horizon: Optional[Callable[[Rig], None]] = None,
) -> Rep:
    """Repetition ``rep``: set up, run, check.  Raises :class:`GateError`."""
    gc.collect()
    blocks_before = sys.getallocatedblocks()
    start = perf_counter()
    inputs = make_inputs(workload, seed, rep, scale)
    rig = Rig(workload, inputs, log)
    setup_s = perf_counter() - start
    start_ns = perf_counter_ns()
    rig.run(at_horizon)
    wall_ns = perf_counter_ns() - start_ns

    records = rig.records
    delivered = len(records)
    if delivered == 0:
        raise GateError(f"{workload.name}: nothing was delivered")
    failed = (
        rig.attempted - rig.delivered_in_order()
        + max(0, delivered - rig.attempted)
    )
    if failed:
        raise GateError(
            f"{workload.name}: {failed} of {rig.attempted} packets were not "
            "delivered exactly once and in order"
        )
    sizes = rig.submit_sizes
    if any(size != sizes[seq] for _, seq, size in records):
        raise GateError(f"{workload.name}: a delivered packet changed size")
    if rig.corrupt_payloads:
        raise GateError(
            f"{workload.name}: {rig.corrupt_payloads} payloads were corrupted"
        )

    times = array("d", (t for t, _, _ in records))
    seqs = array("q", (seq for _, seq, _ in records))
    fingerprint = hashlib.sha256(times.tobytes() + seqs.tobytes()).hexdigest()
    submit_times = rig.submit_times
    latencies = sorted(t - submit_times[seq] for t, seq, _ in records)
    app_bytes = sum(size for _, _, size in records)
    on_time_bytes = sum(size for t, _, size in records if t <= rig.horizon)
    simulated = {
        "goodput_mbps_sim": on_time_bytes * 8 / rig.horizon / 1e6,
        "delivery_p50_ms_sim": latencies[delivered // 2] * 1e3,
        "delivery_p99_ms_sim": latencies[int(0.99 * (delivered - 1))] * 1e3,
        "wire_overhead_share": 1.0 - app_bytes / rig.wire_bytes(),
    }
    counts = rig.counts()
    attempted = rig.attempted
    # What the stack itself still holds once the harness's records are gone
    # and the rig is all that is left alive.
    del records, sizes, times, seqs, latencies, submit_times
    rig.records.clear()
    rig.submit_times.clear()
    rig.submit_sizes.clear()
    gc.collect()
    retained = sys.getallocatedblocks() - blocks_before
    return Rep(
        setup_s=setup_s,
        wall_ns=wall_ns,
        attempted=attempted,
        delivered=delivered,
        fingerprint=fingerprint,
        simulated=simulated,
        counts=counts,
        retained_blocks=retained,
    )


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure_end_to_end(
    workload: Workload, seed: int, seconds: float, scale: float
) -> Dict[str, Any]:
    """Untraced repetitions for ``seconds``, reduced by :data:`REDUCE`."""
    run_rep(workload, seed, 0, scale * WARMUP_SCALE)
    reps: List[Rep] = []
    import_s: List[float] = []
    next_import = 0.0
    deadline = perf_counter() + seconds
    while len(reps) < MIN_REPS or perf_counter() < deadline:
        if len(import_s) < MIN_REPS or perf_counter() >= next_import:
            import_s.append(time_stack_import())
            next_import = perf_counter() + IMPORT_EVERY_S
        reps.append(run_rep(workload, seed, len(reps), scale))
    samples = {
        # One number per run: the import is sampled on its own schedule, so
        # there is no per-repetition set-up time to pair on.
        "setup_s": [
            lower_quartile(import_s) + median(rep.setup_s for rep in reps)
        ],
        "wall_ns_per_pkt": [rep.wall_ns_per_pkt for rep in reps],
        "peak_rss_mb": [peak_rss_mb()],
    }
    for name in SIMULATED:
        samples[name] = [rep.simulated[name] for rep in reps]
    return {
        "attempted": sum(rep.attempted for rep in reps),
        "failed": 0,
        "fingerprints": [rep.fingerprint for rep in reps],
        "latency_samples": [rep.delivered for rep in reps],
        "samples": samples,
        "metrics": {name: REDUCE[name](samples[name]) for name in END_TO_END},
    }


def measure_per_layer(
    workload: Workload,
    seed: int,
    seconds: float,
    scale: float,
    spans_out: Optional[str] = None,
) -> Dict[str, Any]:
    """The ladder of repetition 0's inputs.

    Pairs of an untraced and a traced repetition, all on the same inputs,
    for half of ``seconds``; every one must deliver exactly the same.  The
    spans reported are those of the fastest traced repetition (the noise
    only adds time), so they sum to that repetition's wall time; then the
    isolated rungs on the same inputs.
    """
    checkpoint: List[float] = []
    run_rep(
        workload, seed, 0, scale * WARMUP_SCALE,
        at_horizon=lambda rig: checkpoint.append(checkpoint_us(rig)),
    )
    plain: List[Rep] = []
    best: Optional[Rep] = None
    best_log = SpanLog()
    traced_reps = 0
    span_sum_error = 0.0
    deadline = perf_counter() + seconds / 2
    while not plain or perf_counter() < deadline:
        plain.append(run_rep(workload, seed, 0, scale))
        log = SpanLog()
        rep = run_rep(workload, seed, 0, scale, log)
        traced_reps += 1
        for other in (plain[-1], rep):
            if (other.fingerprint, other.simulated) != (
                plain[0].fingerprint, plain[0].simulated
            ):
                raise GateError(
                    f"{workload.name}: the same inputs gave other deliveries "
                    "(a traced or a repeated run differs from the first)"
                )
        total = sum(ns for ns, _ in log.self_times().values())
        span_sum_error = max(span_sum_error, abs(total / rep.wall_ns - 1.0))
        if best is None or rep.wall_ns < best.wall_ns:
            best, best_log = rep, log
    if span_sum_error > 0.01:
        raise GateError(
            f"{workload.name}: span self times miss the traced wall time "
            f"by {span_sum_error:.2%}"
        )
    if spans_out:
        best_log.write(spans_out)
    first = plain[0]
    metrics: Dict[str, float] = {}
    for name, (ns, n_calls) in best_log.self_times().items():
        metrics[f"span.{name}.self_ns_per_pkt"] = ns / best.delivered
        metrics[f"span.{name}.calls_per_pkt"] = n_calls / best.delivered
    metrics.update(first.counts)
    metrics["mem.retained_blocks_per_kpkt"] = (
        1e3 * first.retained_blocks / first.delivered
    )
    metrics["trace.overhead_share"] = (
        best.wall_ns / min(rep.wall_ns for rep in plain) - 1.0
    )
    metrics.update(
        isolated_rungs(
            workload, make_inputs(workload, seed, 0, scale), first.attempted
        )
    )
    metrics["transport.recovery.checkpoint_us"] = checkpoint[0]
    return {
        "attempted": first.attempted * (len(plain) + traced_reps),
        "failed": 0,
        "fingerprints": [first.fingerprint],
        "span_sum_error": span_sum_error,
        "metrics": metrics,
    }
