"""Experiment registry and command-line runner.

Every paper table/figure has an entry here; ``python -m repro.experiments``
lists them and runs any subset::

    python -m repro.experiments table1 fig5_6
    python -m repro.experiments --all --quick   # shorter simulations

An entry is data: the function it calls and the keyword arguments
``--quick`` passes.  The function returns a result with a ``render()``
method (or a plain string), which the runner prints under a banner.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import json
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List


def to_jsonable(result: Any) -> Any:
    """Best-effort conversion of an experiment result to JSON data."""
    if isinstance(result, str):
        return {"text": result}
    if dataclasses.is_dataclass(result) and not isinstance(result, type):
        return json.loads(json.dumps(dataclasses.asdict(result), default=str))
    return {"repr": repr(result)}


@dataclass(frozen=True)
class Experiment:
    """One runnable paper artifact."""

    name: str
    paper_ref: str
    description: str
    run: str  # "module:function", imported on first use (not by --list)
    #: keyword arguments ``--quick`` passes to the function
    quick: Dict[str, Any] = field(default_factory=dict)

    def load(self) -> Callable[..., Any]:
        module, _, function = self.run.partition(":")
        return getattr(importlib.import_module(module), function)


EXPERIMENTS: Dict[str, Experiment] = {e.name: e for e in [
    Experiment("table1", "Table 1", "Feature matrix of striping schemes",
               "repro.analysis.tables:table1_text"),
    Experiment("fig2_3", "Figures 2-3",
               "Fair queuing / load sharing duality on the worked example",
               "repro.experiments.worked_examples:run_fig2_3"),
    Experiment("fig5_6", "Figures 5-6",
               "SRR deficit counter trace on the worked example",
               "repro.experiments.worked_examples:run_fig5_6"),
    Experiment("fig8_13", "Figures 8-13",
               "Marker synchronization recovery walkthrough",
               "repro.experiments.worked_examples:run_fig8_13"),
    Experiment("fig15", "Figure 15",
               "TCP throughput vs ATM PVC rate, 7 curves",
               "repro.experiments.figure15:run_figure15",
               dict(atm_rates_mbps=(3.8, 13.8, 23.8), duration_s=1.5,
                    warmup_s=0.5)),
    Experiment("grr_worst", "Section 6.2 (in text)",
               "Adversarial alternating sizes: SRR vs GRR",
               "repro.experiments.grr_worst_case:run_grr_worst_case",
               dict(duration_s=1.5, warmup_s=0.5)),
    Experiment("sync_loss", "Section 6.3, finding 1",
               "FIFO restored after loss stops (up to 80% loss)",
               "repro.experiments.loss_recovery:run_loss_recovery",
               dict(loss_rates=(0.1, 0.4, 0.8), loss_phase_s=0.8,
                    total_s=2.0)),
    Experiment("marker_freq", "Section 6.3, finding 2",
               "Marker frequency vs out-of-order deliveries",
               "repro.experiments.marker_frequency:run_marker_frequency",
               dict(intervals=(1, 5, 20), duration_s=1.5)),
    Experiment("marker_pos", "Section 6.3, finding 3",
               "Marker position within the round vs out-of-order deliveries",
               "repro.experiments.marker_position:run_marker_position",
               dict(duration_s=1.0, seeds=(0,))),
    Experiment("credit_fc", "Section 6.3, finding 4",
               "Credit flow control eliminates congestion loss",
               "repro.experiments.flow_control:run_flow_control",
               dict(duration_s=1.5)),
    Experiment("video", "Section 6.3, finding 5",
               "Video playback: quasi-FIFO reordering vs pure loss",
               "repro.experiments.video_quality:run_video_quality",
               dict(loss_rates=(0.0, 0.2, 0.4, 0.6), duration_s=4.0)),
    Experiment("fault_tolerance", "Section 5 (extension)",
               "Reset / reconfiguration / self-stabilization scenarios",
               "repro.experiments.fault_tolerance:run_fault_tolerance",
               dict(total_s=(1.8, 2.0, 3.0))),
    Experiment("chaos", "Section 5 / Theorem 5.1 (extension)",
               "Randomized fault schedules vs the channel lifecycle stack: "
               "degraded-mode throughput and recovery latency",
               "repro.experiments.chaos:run_chaos",
               dict(seeds=7, total_s=1.8)),
    Experiment("reliability", "Section 7 (extension)",
               "Best-effort vs selective-repeat ARQ under persistent loss: "
               "completeness, ordering, and retransmission cost",
               "repro.experiments.reliability:run_reliability",
               dict(loss_rates=(0.05, 0.15), total_s=0.6)),
    Experiment("recovery", "Section 5 (extension)",
               "Crash-tolerant endpoints: recovery latency vs checkpoint "
               "interval, with warm (checkpointed) and cold-resync restarts",
               "repro.experiments.recovery:run_recovery",
               dict(intervals=(0.02, 0.1))),
    Experiment("fec", "Section 7 (extension)",
               "Erasure-coded striping: proactive FEC vs ARQ vs hybrid "
               "under random and bursty loss",
               "repro.experiments.fec_recovery:run_fec_recovery",
               dict(loss_rates=(0.03, 0.10), total_s=0.4)),
    Experiment("mtu", "Section 6.2 (extension)",
               "Min-MTU restriction vs internal fragmentation",
               "repro.experiments.mtu_fragmentation:run_mtu_fragmentation",
               dict(duration_s=1.5, warmup_s=0.5)),
    Experiment("multiflow", "Adoption (extension)",
               "Multiple TCP flows sharing one strIPe bundle",
               "repro.experiments.multiflow:run_multiflow",
               dict(duration_s=2.0, warmup_s=1.0)),
    Experiment("fabric", "Multi-tenant fabric (extension)",
               "10k weighted flows through one bundle (FQ x SRR)",
               "repro.experiments.fabric:run_fabric", dict(n_flows=512)),
    Experiment("scalability", "Title claim (extension)",
               "Throughput / ordering / recovery vs channel count",
               "repro.experiments.scalability:run_scalability",
               dict(channel_counts=(2, 8), duration_s=1.0)),
    Experiment("sprinklers", "Synchronization models (extension)",
               "Sprinklers vs SRR+markers: reorder, memory, chaos, scale "
               "on all five transports",
               "repro.experiments.sprinklers:run_sprinklers",
               dict(duration_s=0.5, chaos_total_s=1.5, chaos_seeds=(3,),
                    scale_flows=1_000)),
    Experiment("tcp_channels", "Section 2 (extension)",
               "Striping over TCP connections: guaranteed FIFO, no markers",
               "repro.experiments.tcp_channels:run_tcp_channels",
               dict(channel_counts=(1, 2), duration_s=1.0)),
    Experiment("cell_striping", "Conclusion (extension)",
               "Cell vs packet striping over ATM: the early-discard argument",
               "repro.experiments.cell_striping:run_cell_striping",
               dict(duration_s=1.0)),
]}


def run_experiment(name: str, quick: bool = False) -> Any:
    """Run one experiment by registry name; returns its result object."""
    experiment = EXPERIMENTS.get(name)
    if experiment is None:
        raise KeyError(f"unknown experiment {name!r}; known: "
                       f"{sorted(EXPERIMENTS)}")
    return experiment.load()(**(experiment.quick if quick else {}))


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's tables and figures.")
    parser.add_argument("names", nargs="*", help="experiment names to run")
    parser.add_argument("--all", action="store_true", help="run everything")
    parser.add_argument("--quick", action="store_true",
                        help="shorter simulations")
    parser.add_argument("--list", action="store_true",
                        help="list experiments and exit")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="also write all results as JSON to PATH")
    args = parser.parse_args(argv)

    if args.list or (not args.names and not args.all):
        for experiment in EXPERIMENTS.values():
            print(f"{experiment.name:>12}  {experiment.paper_ref:<22} "
                  f"{experiment.description}")
        return 0

    names = list(EXPERIMENTS) if args.all else args.names
    unknown = [name for name in names if name not in EXPERIMENTS]
    if unknown:  # before anything runs: a typo must not cost a long run
        print("\n".join(f"unknown experiment: {name}" for name in unknown),
              file=sys.stderr)
        return 2
    collected: Dict[str, Any] = {}
    for name in names:
        experiment = EXPERIMENTS[name]
        print(f"=== {experiment.paper_ref}: {experiment.description} ===")
        start = time.time()
        result = run_experiment(name, args.quick)
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
