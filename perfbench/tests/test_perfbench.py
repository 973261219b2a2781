"""Self-tests of the benchmark, at ``--scale 0.02``.

    python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import measure  # noqa: E402
from perfbench.metrics import END_TO_END, PER_LAYER  # noqa: E402
from perfbench.rigs import WORKLOADS, Rig, make_inputs  # noqa: E402
from perfbench.spans import SpanLog  # noqa: E402

SCALE = 0.02
UNSEEN_SEED = 424_242
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")

#: per-layer counts that must be exactly 0 where the layer is not mounted
ARQ_COUNTS = [n for n in PER_LAYER if n.startswith("transport.reliability.")
              and not n.endswith("rx_ns_per_pkt")]
FEC_COUNTS = [n for n in PER_LAYER if n.startswith("transport.fec.")]


def _cli(*args: str, cwd: Path = ROOT, env=None) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "perfbench", *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )


def test_benchmark_json_matches_the_code_and_the_limits():
    assert BENCHMARK["paths"] == ["perfbench"]
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    for entry in BENCHMARK["workloads"]:
        assert entry["why"] == WORKLOADS[entry["name"]].why
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]
    e2e = {m["name"]: (m["unit"], m["better"]) for m in BENCHMARK["end_to_end"]}
    layers = {m["name"]: (m["unit"], m["better"]) for m in BENCHMARK["per_layer"]}
    assert e2e == END_TO_END
    assert layers == PER_LAYER
    assert e2e["setup_s"] == ("s", "lower")
    assert all(0 < m["bound"] <= 0.25 for m in BENCHMARK["end_to_end"])
    names = list(WORKLOADS) + list(e2e) + list(layers)
    assert all(NAME.match(name) for name in names)
    assert len(set(names)) == len(names)
    assert 2 <= len(WORKLOADS) <= 8
    assert len(e2e) <= 16 and len(layers) <= 128


def test_span_self_times_sum_to_the_root():
    log = SpanLog()
    leaf = log.wrap("app", lambda: sum(range(200)))

    def middle() -> None:
        leaf()
        leaf()

    root = log.wrap("engine_channel", log.wrap("rx", middle))
    root()
    table = log.self_times()
    assert table["app"][1] == 2 and table["rx"][1] == 1
    assert sum(ns for ns, _ in table.values()) == log.ends[0] - log.starts[0]
    assert all(ns >= 0 for ns, _ in table.values())


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_end_to_end_on_an_unseen_seed(name):
    result = measure.measure_end_to_end(
        WORKLOADS[name], UNSEEN_SEED, 0.0, SCALE
    )
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert len(result["fingerprints"]) == measure.MIN_REPS
    assert len(set(result["fingerprints"])) == measure.MIN_REPS
    assert list(result["metrics"]) == list(END_TO_END)
    assert all(value > 0 for value in result["metrics"].values())


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_per_layer_ladder(name):
    workload = WORKLOADS[name]
    # measure_per_layer itself raises GateError if the traced and untraced
    # fingerprints differ or the span self times miss the traced wall time.
    result = measure.measure_per_layer(workload, UNSEEN_SEED, 0.0, SCALE)
    metrics = result["metrics"]
    assert set(metrics) == set(PER_LAYER)
    assert result["span_sum_error"] <= 0.01
    if workload.reliability == "quasi_fifo":
        assert all(metrics[n] == 0 for n in ARQ_COUNTS + FEC_COUNTS)
        assert metrics["span.ack_rx.calls_per_pkt"] == 0
    else:
        assert metrics["transport.reliability.acks_per_pkt"] > 0
    if workload.reliability != "hybrid":
        assert all(metrics[n] == 0 for n in FEC_COUNTS)
    if not workload.flows:
        assert metrics["transport.fabric.submit_ns_per_pkt"] == 0
    assert metrics["transport.fabric.refusals"] == 0
    if name == "clean_bulk":
        assert metrics["transport.sync_model.markers_per_pkt"] >= 0.9
    if name == "skewed_small":
        assert metrics["transport.sync_model.markers_per_pkt"] < 0.05


def test_the_same_seed_and_repetition_give_the_same_deliveries():
    workload = WORKLOADS["lossy_hybrid"]
    first = measure.run_rep(workload, UNSEEN_SEED, 2, SCALE)
    again = measure.run_rep(workload, UNSEEN_SEED, 2, SCALE)
    other = measure.run_rep(workload, UNSEEN_SEED, 3, SCALE)
    assert (first.fingerprint, first.simulated, first.counts) == (
        again.fingerprint, again.simulated, again.counts
    )
    assert other.fingerprint != first.fingerprint
    twin = measure.run_rep(WORKLOADS["lossy_reliable"], UNSEEN_SEED, 2, SCALE)
    assert twin.attempted > 0 and twin.fingerprint != first.fingerprint


def test_the_gate_sees_a_reordered_delivery():
    workload = WORKLOADS["clean_bulk"]
    rig = Rig(workload, make_inputs(workload, UNSEEN_SEED, 0, SCALE))
    rig.run()
    assert rig.delivered_in_order() == rig.attempted
    rig.records[3], rig.records[4] = rig.records[4], rig.records[3]
    assert rig.delivered_in_order() == rig.attempted - 2


def test_driver_form_prints_the_contract_line():
    done = _cli("--workload", "skewed_small", "--seed", "11",
                "--seconds", "0.2", "--trace", "0", "--scale", str(SCALE))
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        name: unit for name, (unit, _) in END_TO_END.items()
    }


def test_report_compared_with_itself_is_all_unchanged(tmp_path):
    report = tmp_path / "a.json"
    done = _cli("--workload", "lossy_hybrid", "--seconds", "0.2",
                "--scale", str(SCALE), "--out", str(report))
    assert done.returncode == 0, done.stderr + done.stdout
    assert "simulated" in done.stdout
    entry = json.loads(report.read_text())["workloads"]["lossy_hybrid"]
    assert (entry["end_to_end"]["fingerprints"][0]
            == entry["per_layer"]["fingerprints"][0])
    compared = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "compare.py"),
         str(report), str(report)],
        capture_output=True, text=True, timeout=60,
    )
    assert compared.returncode == 0, compared.stdout + compared.stderr
    rows = [line for line in compared.stdout.splitlines()
            if line.startswith("lossy_hybrid") and "base A" in line]
    assert len(rows) == len(END_TO_END)
    assert all("  unchanged (" in row for row in rows)


def test_without_the_program_there_is_no_result(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = _cli("--workload", "clean_bulk", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path, env={"PATH": os.environ["PATH"]})
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
