"""Experiment registry and command-line runner.

Every paper table/figure has an entry here; ``python -m repro.experiments``
lists them and runs any subset::

    python -m repro.experiments table1 fig5_6
    python -m repro.experiments --all
    python -m repro.experiments --all --quick   # shorter simulations

Each entry returns a result object with a ``render()`` method (or a plain
string); the runner prints it under a banner.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List


def to_jsonable(result: Any) -> Any:
    """Best-effort conversion of an experiment result to JSON data."""
    if isinstance(result, str):
        return {"text": result}
    if dataclasses.is_dataclass(result) and not isinstance(result, type):
        return json.loads(
            json.dumps(dataclasses.asdict(result), default=str)
        )
    return {"repr": repr(result)}


@dataclass(frozen=True)
class Experiment:
    """One runnable paper artifact."""

    name: str
    paper_ref: str
    description: str
    run: Callable[..., Any]  # accepts quick: bool


def _run_table1(quick: bool = False) -> str:
    from repro.analysis.tables import extended_rows, render_table

    return render_table(extended_rows())


def _run_fig2_3(quick: bool = False):
    from repro.experiments.worked_examples import run_fig2_3

    return run_fig2_3()


def _run_fig5_6(quick: bool = False):
    from repro.experiments.worked_examples import run_fig5_6

    return run_fig5_6()


def _run_fig8_13(quick: bool = False):
    from repro.experiments.worked_examples import run_fig8_13

    return run_fig8_13()


def _run_fig15(quick: bool = False):
    from repro.experiments.figure15 import run_figure15

    if quick:
        return run_figure15(
            atm_rates_mbps=(3.8, 13.8, 23.8), duration_s=1.5, warmup_s=0.5
        )
    return run_figure15()


def _run_grr_worst(quick: bool = False):
    from repro.experiments.grr_worst_case import run_grr_worst_case

    if quick:
        return run_grr_worst_case(duration_s=1.5, warmup_s=0.5)
    return run_grr_worst_case()


def _run_sync_loss(quick: bool = False):
    from repro.experiments.loss_recovery import run_loss_recovery

    if quick:
        return run_loss_recovery(
            loss_rates=(0.1, 0.4, 0.8), loss_phase_s=0.8, total_s=2.0
        )
    return run_loss_recovery()


def _run_marker_freq(quick: bool = False):
    from repro.experiments.marker_frequency import run_marker_frequency

    if quick:
        return run_marker_frequency(intervals=(1, 5, 20), duration_s=1.5)
    return run_marker_frequency()


def _run_marker_pos(quick: bool = False):
    from repro.experiments.marker_position import run_marker_position

    if quick:
        return run_marker_position(duration_s=1.0, seeds=(0,))
    return run_marker_position()


def _run_credit_fc(quick: bool = False):
    from repro.experiments.flow_control import run_flow_control

    if quick:
        return run_flow_control(duration_s=1.5)
    return run_flow_control()


def _run_video(quick: bool = False):
    from repro.experiments.video_quality import run_video_quality

    if quick:
        return run_video_quality(
            loss_rates=(0.0, 0.2, 0.4, 0.6), duration_s=4.0
        )
    return run_video_quality()


def _run_fault_tolerance(quick: bool = False):
    from repro.experiments.fault_tolerance import run_fault_tolerance

    return run_fault_tolerance(quick=quick)


def _run_chaos(quick: bool = False):
    from repro.experiments.chaos import run_chaos

    return run_chaos(quick=quick)


def _run_reliability(quick: bool = False):
    from repro.experiments.reliability import run_reliability

    return run_reliability(quick=quick)


def _run_recovery(quick: bool = False):
    from repro.experiments.recovery import run_recovery

    return run_recovery(quick=quick)


def _run_fec(quick: bool = False):
    from repro.experiments.fec_recovery import run_fec_recovery

    return run_fec_recovery(quick=quick)


def _run_mtu(quick: bool = False):
    from repro.experiments.mtu_fragmentation import run_mtu_fragmentation

    if quick:
        return run_mtu_fragmentation(duration_s=1.5, warmup_s=0.5)
    return run_mtu_fragmentation()


def _run_multiflow(quick: bool = False):
    from repro.experiments.multiflow import run_multiflow

    if quick:
        return run_multiflow(duration_s=2.0, warmup_s=1.0)
    return run_multiflow()


def _run_fabric(quick: bool = False):
    from repro.experiments.fabric import run_fabric

    if quick:
        return run_fabric(n_flows=512)
    return run_fabric()


def _run_scalability(quick: bool = False):
    from repro.experiments.scalability import run_scalability

    if quick:
        return run_scalability(channel_counts=(2, 8), duration_s=1.0)
    return run_scalability()


def _run_sprinklers(quick: bool = False):
    from repro.experiments.sprinklers import run_sprinklers

    return run_sprinklers(quick=quick)


def _run_tcp_channels(quick: bool = False):
    from repro.experiments.tcp_channels import run_tcp_channels

    if quick:
        return run_tcp_channels(channel_counts=(1, 2), duration_s=1.0)
    return run_tcp_channels()


def _run_cell_striping(quick: bool = False):
    from repro.experiments.cell_striping import run_cell_striping

    if quick:
        return run_cell_striping(duration_s=1.0)
    return run_cell_striping()


EXPERIMENTS: Dict[str, Experiment] = {
    e.name: e
    for e in [
        Experiment(
            "table1", "Table 1",
            "Feature matrix of striping schemes", _run_table1,
        ),
        Experiment(
            "fig2_3", "Figures 2-3",
            "Fair queuing / load sharing duality on the worked example",
            _run_fig2_3,
        ),
        Experiment(
            "fig5_6", "Figures 5-6",
            "SRR deficit counter trace on the worked example", _run_fig5_6,
        ),
        Experiment(
            "fig8_13", "Figures 8-13",
            "Marker synchronization recovery walkthrough", _run_fig8_13,
        ),
        Experiment(
            "fig15", "Figure 15",
            "TCP throughput vs ATM PVC rate, 7 curves", _run_fig15,
        ),
        Experiment(
            "grr_worst", "Section 6.2 (in text)",
            "Adversarial alternating sizes: SRR vs GRR", _run_grr_worst,
        ),
        Experiment(
            "sync_loss", "Section 6.3, finding 1",
            "FIFO restored after loss stops (up to 80% loss)", _run_sync_loss,
        ),
        Experiment(
            "marker_freq", "Section 6.3, finding 2",
            "Marker frequency vs out-of-order deliveries", _run_marker_freq,
        ),
        Experiment(
            "marker_pos", "Section 6.3, finding 3",
            "Marker position within the round vs out-of-order deliveries",
            _run_marker_pos,
        ),
        Experiment(
            "credit_fc", "Section 6.3, finding 4",
            "Credit flow control eliminates congestion loss", _run_credit_fc,
        ),
        Experiment(
            "video", "Section 6.3, finding 5",
            "Video playback: quasi-FIFO reordering vs pure loss", _run_video,
        ),
        Experiment(
            "fault_tolerance", "Section 5 (extension)",
            "Reset / reconfiguration / self-stabilization scenarios",
            _run_fault_tolerance,
        ),
        Experiment(
            "chaos", "Section 5 / Theorem 5.1 (extension)",
            "Randomized fault schedules vs the channel lifecycle stack: "
            "degraded-mode throughput and recovery latency",
            _run_chaos,
        ),
        Experiment(
            "reliability", "Section 7 (extension)",
            "Best-effort vs selective-repeat ARQ under persistent loss: "
            "completeness, ordering, and retransmission cost",
            _run_reliability,
        ),
        Experiment(
            "recovery", "Section 5 (extension)",
            "Crash-tolerant endpoints: recovery latency vs checkpoint "
            "interval, with warm (checkpointed) and cold-resync restarts",
            _run_recovery,
        ),
        Experiment(
            "fec", "Section 7 (extension)",
            "Erasure-coded striping: proactive FEC vs ARQ vs hybrid "
            "under random and bursty loss",
            _run_fec,
        ),
        Experiment(
            "mtu", "Section 6.2 (extension)",
            "Min-MTU restriction vs internal fragmentation", _run_mtu,
        ),
        Experiment(
            "multiflow", "Adoption (extension)",
            "Multiple TCP flows sharing one strIPe bundle", _run_multiflow,
        ),
        Experiment(
            "fabric", "Multi-tenant fabric (extension)",
            "10k weighted flows through one bundle (FQ x SRR)", _run_fabric,
        ),
        Experiment(
            "scalability", "Title claim (extension)",
            "Throughput / ordering / recovery vs channel count",
            _run_scalability,
        ),
        Experiment(
            "sprinklers", "Synchronization models (extension)",
            "Sprinklers vs SRR+markers: reorder, memory, chaos, scale "
            "on all five transports",
            _run_sprinklers,
        ),
        Experiment(
            "tcp_channels", "Section 2 (extension)",
            "Striping over TCP connections: guaranteed FIFO, no markers",
            _run_tcp_channels,
        ),
        Experiment(
            "cell_striping", "Conclusion (extension)",
            "Cell vs packet striping over ATM: the early-discard argument",
            _run_cell_striping,
        ),
    ]
}


def run_experiment(name: str, quick: bool = False) -> Any:
    """Run one experiment by registry name; returns its result object."""
    experiment = EXPERIMENTS.get(name)
    if experiment is None:
        raise KeyError(
            f"unknown experiment {name!r}; known: {sorted(EXPERIMENTS)}"
        )
    return experiment.run(quick=quick)


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument("names", nargs="*", help="experiment names to run")
    parser.add_argument("--all", action="store_true", help="run everything")
    parser.add_argument(
        "--quick", action="store_true", help="shorter simulations"
    )
    parser.add_argument(
        "--list", action="store_true", help="list experiments and exit"
    )
    parser.add_argument(
        "--json", metavar="PATH", default=None,
        help="also write all results as JSON to PATH",
    )
    args = parser.parse_args(argv)

    if args.list or (not args.names and not args.all):
        for experiment in EXPERIMENTS.values():
            print(f"{experiment.name:>12}  {experiment.paper_ref:<22} "
                  f"{experiment.description}")
        return 0

    names = list(EXPERIMENTS) if args.all else args.names
    collected: Dict[str, Any] = {}
    for name in names:
        experiment = EXPERIMENTS.get(name)
        if experiment is None:
            print(f"unknown experiment: {name}", file=sys.stderr)
            return 2
        banner = f"=== {experiment.paper_ref}: {experiment.description} ==="
        print(banner)
        start = time.time()
        result = experiment.run(quick=args.quick)
        text = result if isinstance(result, str) else result.render()
        print(text)
        print(f"--- {name} done in {time.time() - start:.1f}s ---\n")
        if args.json:
            collected[name] = to_jsonable(result)
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(collected, handle, indent=2)
        print(f"results written to {args.json}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
