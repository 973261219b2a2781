"""Compare two perfbench reports: ``python3 perfbench/compare.py A.json B.json``.

A is the base.  Repetition ``i`` of both reports ran the same inputs (same
seed, same index), so every metric is compared pair by pair: the ratio
B/A of each pair, then the median ratio and the spread of the ratios (their
interquartile distance).  Pairing cancels what the inputs contribute, which
is most of what varies inside one report.  One row per workload and
end-to-end metric: both medians, the median ratio, the bound from
``BENCHMARK.json``, the spread and a verdict.

* ``worse``: the median ratio is worse than 1 by more than the bound.
* ``better``: it is better than 1 by more than the spread of the ratios.
* ``unresolved``: the spread is wider than the bound, so the bound cannot
  be checked; unless every pair is better, which reads ``better``.
* ``unchanged``: anything else.

A metric with one sample per report (``setup_s``, ``peak_rss_mb``) has no
spread of its own and does not repeat exactly, so it has to move by the
bound to count either way.

The per-layer metrics follow, as a plain A/B diff.  The exit code is 1 if
any row reads ``worse`` or ``unresolved``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from statistics import median, quantiles
from typing import Any, Dict, List

ROOT = Path(__file__).resolve().parent.parent


def _iqr(samples: List[float]) -> float:
    if len(samples) < 2:
        return 0.0
    q1, _, q3 = quantiles(samples, n=4)
    return q3 - q1


def verdict(ratios: List[float], better: str, bound: float) -> str:
    """One row's verdict from the B/A ratios of its pairs."""
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (median(ratios) - 1.0)
    spread = _iqr(ratios)
    if spread > bound:
        if all(sign * (ratio - 1.0) < 0 for ratio in ratios):
            return "better"
        return "unresolved"
    if worse_by > bound:
        return "worse"
    resolution = spread if len(ratios) > 1 else bound
    if -worse_by > resolution:
        return "better"
    return "unchanged"


def compare(a: Dict[str, Any], b: Dict[str, Any], out: Any = sys.stdout) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    for side, report in (("A", a), ("B", b)):
        print(
            f"{side}: commit {report['commit'][:12]} python {report['python']} "
            f"nproc {report['nproc']} seed {report['seed']} "
            f"scale {report['scale']}",
            file=out,
        )
    if (a["seed"], a["scale"]) != (b["seed"], b["scale"]):
        print("warning: seed or scale differ; rows are not comparable", file=out)
    header = (
        f"{'workload':<15} {'metric':<22} {'pairs':>5} {'A median':>13} "
        f"{'B median':>13} {'B/A':>7} {'bound':>6} {'spread':>7}  verdict"
    )
    print(header, file=out)
    bad = 0
    workloads = [w for w in a["workloads"] if w in b["workloads"]]
    for workload in workloads:
        ea = a["workloads"][workload]["end_to_end"]
        eb = b["workloads"][workload]["end_to_end"]
        same = sum(
            x == y for x, y in zip(ea["fingerprints"], eb["fingerprints"])
        )
        pairs = min(len(ea["fingerprints"]), len(eb["fingerprints"]))
        print(f"{workload:<15} deliveries identical on {same} of {pairs} "
              "paired repetitions", file=out)
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            n = min(len(ea["samples"][name]), len(eb["samples"][name]))
            xa, xb = ea["samples"][name][:n], eb["samples"][name][:n]
            ratios = [y / x for x, y in zip(xa, xb)]
            word = verdict(ratios, metric["better"], metric["bound"])
            bad += word in ("worse", "unresolved")
            print(
                f"{workload:<15} {name:<22} {n:>5} {median(xa):>13.6g} "
                f"{median(xb):>13.6g} {median(ratios):>7.3f} "
                f"{metric['bound']:>6.0%} {_iqr(ratios):>7.1%}  {word} "
                f"(base A, {metric['unit']}, {metric['better']} is better)",
                file=out,
            )
    print("\nper-layer diff (B/A, base A; rows that are 0 on both sides "
          "are left out)", file=out)
    for workload in workloads:
        la = a["workloads"][workload]["per_layer"]["metrics"]
        lb = b["workloads"][workload]["per_layer"]["metrics"]
        for name, cell in la.items():
            va, vb = cell["value"], lb[name]["value"]
            if va == 0 and vb == 0:
                continue
            ratio = f"{vb / va:>7.3f}" if va else "    new"
            print(
                f"{workload:<15} {name:<44} {va:>13.6g} {vb:>13.6g} "
                f"{ratio} {cell['unit']}",
                file=out,
            )
    return 1 if bad else 0


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__.splitlines()[0], file=sys.stderr)
        return 2
    reports = [json.loads(Path(path).read_text()) for path in argv]
    return compare(*reports)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
