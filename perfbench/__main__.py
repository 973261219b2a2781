"""Command line of the benchmark.

Driver form, one workload in this process, the result as the last line::

    python3 -m perfbench --workload clean_bulk --seed 7 --seconds 10 --trace 0

``--trace 0`` reports the end-to-end metrics from untraced repetitions,
``--trace 1`` the per-layer metrics from traced ones.  Without ``--trace``
every workload (or the one named) runs both ways, each in a fresh
subprocess, and every metric is printed by name with its unit; the run is
also written to ``perfbench/out/`` for ``perfbench/compare.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from statistics import median
from typing import Any, Dict, List, Optional

from perfbench import ROOT, measure
from perfbench.metrics import END_TO_END, PER_LAYER
from perfbench.rigs import WORKLOADS

DEFAULT_SEED = 1996
LINKS = "simulated (no real link, no loopback socket)"


def run_one(args: argparse.Namespace) -> int:
    """Driver form: measure one workload here, print the result line."""
    workload = WORKLOADS[args.workload]
    try:
        if args.trace:
            result = measure.measure_per_layer(
                workload, args.seed, args.seconds, args.scale, args.spans_out
            )
            units = PER_LAYER
        else:
            result = measure.measure_end_to_end(
                workload, args.seed, args.seconds, args.scale
            )
            units = END_TO_END
    except measure.GateError as error:
        print(f"correctness gate failed: {error}", file=sys.stderr)
        return 1
    metrics = result.pop("metrics")
    info = {
        "workload": workload.name,
        "loop": workload.loop,
        "links": LINKS,
        "seed": args.seed,
        "scale": args.scale,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        **result,
    }
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": True,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": metrics[name], "unit": units[name][0]}
            for name in units
        },
    }))
    return 0


def _git_commit() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def run_all(args: argparse.Namespace, workloads: List[str]) -> int:
    """Every workload, both ways, each in a fresh subprocess."""
    report: Dict[str, Any] = {
        "commit": _git_commit(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "scale": args.scale,
        "seconds": args.seconds,
        "links": LINKS,
        "workloads": {},
    }
    print(f"perfbench: links are {LINKS}; seed {args.seed}, scale {args.scale}")
    if args.scale != 1.0:
        print("  (only scale 1.0 is comparable between runs)")
    for name in workloads:
        entry: Dict[str, Any] = {}
        for trace in (0, 1):
            command = [
                sys.executable, "-m", "perfbench", "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--scale", str(args.scale), "--trace", str(trace),
            ]
            done = subprocess.run(
                command, cwd=ROOT, capture_output=True, text=True
            )
            if done.returncode != 0:
                sys.stderr.write(done.stderr)
                print(f"{name}: FAILED (trace {trace})")
                return 1
            info_line, result_line = done.stdout.strip().splitlines()[-2:]
            result = json.loads(result_line)
            entry["per_layer" if trace else "end_to_end"] = {
                **json.loads(info_line)["info"],
                "metrics": result["metrics"],
            }
        report["workloads"][name] = entry
        _print_workload(name, entry)
    out = args.out or str(
        ROOT / "perfbench" / "out" / time.strftime("run-%Y%m%dT%H%M%S.json")
    )
    os.makedirs(os.path.dirname(out) or ".", exist_ok=True)
    with open(out, "w") as handle:
        json.dump(report, handle, indent=1)
    print(f"written to {out}")
    return 0


def _print_workload(name: str, entry: Dict[str, Any]) -> None:
    e2e, layers = entry["end_to_end"], entry["per_layer"]
    print(
        f"\n== {name} ({e2e['loop']} loop): {len(e2e['fingerprints'])} "
        f"repetitions, {e2e['attempted']} packets attempted, "
        f"{e2e['failed']} failed, {median(e2e['latency_samples'])} latency "
        "samples per repetition"
    )
    print(f"   fingerprint of repetition 0: {e2e['fingerprints'][0][:16]} "
          f"(traced run: {layers['fingerprints'][0][:16]})")
    for section in (e2e, layers):
        for metric, cell in section["metrics"].items():
            print(f"   {metric:<46} {cell['value']:>14.6g} {cell['unit']}")


def main(argv: Optional[List[str]] = None) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = list(WORKLOADS)
    parser = argparse.ArgumentParser(prog="python3 -m perfbench", description=__doc__)
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        default=float(benchmark["run_seconds"]),
                        help="how long one run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="driver form: 0 end-to-end, 1 per-layer")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiplies simulated seconds and flows; for "
                        "self-tests, only 1.0 is comparable")
    parser.add_argument("--spans-out", help="with --trace 1: write the last "
                        "traced repetition's spans here (gzipped CSV)")
    parser.add_argument("--out", help="without --trace: the report file")
    args = parser.parse_args(argv)
    if args.trace is None:
        return run_all(args, [args.workload] if args.workload else names)
    if args.workload is None:
        parser.error("--trace needs --workload")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
