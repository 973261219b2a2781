# Convenience targets for the reproduction repo.

.PHONY: install test bench experiments quick-experiments examples clean \
	smoke lint-endpoints perf perf-ab frames quick-diff unexecuted

install:
	pip install -e . || python setup.py develop

test:
	pytest tests/

bench:
	pytest benchmarks/ --benchmark-only

# End-to-end check beyond `make test`: the chaos, reliability, fabric and
# recovery experiments run to completion at --quick, then the three
# behavioural benchmarks assert their acceptance bars at their quick
# settings (Sprinklers: zero reorder / zero receiver memory / zero markers
# on stable transports; FEC: hybrid goodput >= pure ARQ at every point;
# fabric: per-tenant Jain and weighted shares).  Writes no tracked file.
smoke:
	PYTHONPATH=src python -m repro.experiments --quick \
		chaos reliability fabric recovery
	PYTHONPATH=src pytest benchmarks/test_bench_sprinklers.py \
		benchmarks/test_bench_fec.py benchmarks/test_bench_fabric.py \
		-k quick -x -q

# The performance benchmark (BENCHMARK.json): all five workloads, end to
# end and per layer, report written to perfbench/out/ for compare.py.
perf:
	python3 -m perfbench

# What a delivered packet costs in counts, no wall clock: Python frames per
# delivered packet, kernel steps per packet sent and schedule_call frames
# per packet for the five workload shapes at 0.02 scale, then tracemalloc
# bytes per registered fabric flow at 1k, 10k and 100k flows (seconds to
# run; tests/integration/test_call_counts.py and
# tests/transport/test_fabric_storage.py guard bounds on the same rigs).
#   make frames            the table
#   make frames TOP=25     plus the 25 busiest functions under each shape
frames:
	PYTHONPATH=src python -m tests.frames $(if $(TOP),--top $(TOP))

# What nothing the system runs ever enters, and which constructor options
# it only ever sets one way: every experiment at --quick, the six examples,
# the five frame shapes and perfbench at 0.02 scale run under
# sys.setprofile, then every src/ function none of them entered is listed,
# and the values each optional __init__ parameter under core/ sim/ net/
# transport/ workloads/ received are counted.  Prints "N never entered, M
# allowlisted" and "N constructor options, M single-valued, K allowlisted";
# exits 1 on any unentered definition that is not on tests/unexecuted.py's
# ALLOWED table and on any single-valued option that is not on its OPTIONS
# table (about two minutes).
unexecuted:
	PYTHONPATH=src python -m tests.unexecuted

# A/B of one workload between two checkouts, the way the benchmark driver
# measures a claim: PAIRS (10) pairs of driver-form runs on one seed,
# alternating which side runs first, then each side's median and quartiles
# of metric M (any end-to-end metric of BENCHMARK.json, default
# wall_ns_per_pkt) and how many pairs B won by that metric's `better`
# direction.
#   make perf-ab W=skewed_small A=/tmp/parent B=. SEED=31337
#   make perf-ab W=fabric_fanin M=peak_rss_mb A=/tmp/parent B=. SEED=31337
PAIRS ?= 10
M ?= wall_ns_per_pkt
define PERF_AB
import json, subprocess, sys
from statistics import median, quantiles
workload, a, b, seed, pairs, metric = sys.argv[1:]
with open("BENCHMARK.json") as handle:
    declared = {m["name"]: m for m in json.load(handle)["end_to_end"]}
if metric not in declared:
    sys.exit(f"unknown metric {metric}; BENCHMARK.json declares "
             + ", ".join(declared))
unit, lower = declared[metric]["unit"], declared[metric]["better"] == "lower"
def run(tree):
    done = subprocess.run(
        ["python3", "-m", "perfbench", "--workload", workload, "--seed", seed,
         "--seconds", "20", "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    if done.returncode:
        sys.exit(f"{tree}: perfbench failed\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return result["metrics"][metric]["value"]
values = {a: [], b: []}
for pair in range(int(pairs)):
    for tree in ((a, b) if pair % 2 == 0 else (b, a)):
        values[tree].append(run(tree))
    print(f"pair {pair}: A {values[a][-1]:.6g}  B {values[b][-1]:.6g}  "
          f"B/A {values[b][-1] / values[a][-1]:.3f}", flush=True)
for side, tree in (("A", a), ("B", b)):
    q1, _, q3 = quantiles(values[tree], n=4)
    print(f"{side} {tree}: {metric} median {median(values[tree]):.6g} {unit}, "
          f"quartiles {q1:.6g}..{q3:.6g} ({q3 - q1:.6g} apart)")
wins = sum((y < x) if lower else (y > x) for x, y in zip(values[a], values[b]))
ties = sum(y == x for x, y in zip(values[a], values[b]))
print(f"{workload} seed {seed} {metric} ({declared[metric]['better']} is "
      f"better): B ahead in {wins} of {pairs} pairs, {ties} tied")
endef
export PERF_AB
perf-ab:
	@test -n "$(W)" -a -n "$(SEED)" -a -d "$(A)" -a -d "$(B)" || { \
		echo "usage: make perf-ab W=<workload> A=<checkout> B=<checkout> SEED=<n> [M=<end-to-end metric>]"; \
		exit 2; }
	@python3 -c "$$PERF_AB" "$(W)" "$(A)" "$(B)" "$(SEED)" "$(PAIRS)" "$(M)"

# Behavioural A/B of two checkouts: every experiment at --quick in both
# trees, then the result JSON compared per experiment and the rendered text
# compared minus the wall-clock `done in` lines; then every example in
# examples/ run in both trees and its stdout compared.  Names every
# experiment that differs and in what — `DIFFERS: <name> (json)`, `(text)`
# or `(json, text)`, followed by up to five differing JSON paths with
# their A and B values — and every example whose output differs —
# `DIFFERS: example <name>` — and exits non-zero: the check a refactoring
# change owes.
#   make quick-diff A=/tmp/parent B=.
define QUICK_DIFF
import glob, json, os, re, subprocess, sys, tempfile
a, b = sys.argv[1:]
def env(tree):
    return {**os.environ, "PYTHONPATH": os.path.join(tree, "src")}
def run(tree):
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "quick.json")
        done = subprocess.run(
            [sys.executable, "-m", "repro.experiments", "--all", "--quick",
             "--json", out],
            cwd=tree, capture_output=True, text=True, env=env(tree))
        if done.returncode:
            sys.exit(f"{tree}: experiments failed\n{done.stderr}")
        with open(out) as handle:
            results = json.load(handle)
    sections, lines = {}, []
    for line in done.stdout.splitlines():
        ended = re.match(r"--- (\S+) done in ", line)
        if ended:
            sections[ended.group(1)], lines = lines, []
        else:
            lines.append(line)
    return results, sections
(json_a, text_a), (json_b, text_b) = run(os.path.abspath(a)), run(os.path.abspath(b))
ABSENT = object()
def paths(x, y, at):
    """Yield (path, A value, B value) for each leaf where x and y differ."""
    if isinstance(x, dict) and isinstance(y, dict):
        for key in sorted(set(x) | set(y), key=str):
            yield from paths(x.get(key, ABSENT), y.get(key, ABSENT), f"{at}.{key}")
    elif isinstance(x, list) and isinstance(y, list) and len(x) == len(y):
        for index, (u, v) in enumerate(zip(x, y)):
            yield from paths(u, v, f"{at}[{index}]")
    elif x != y:
        yield at, x, y
def shown(value):
    text = "(absent)" if value is ABSENT else json.dumps(value)
    return text if len(text) <= 60 else text[:57] + "..."
differ = {}
for name in sorted(set(json_a) | set(json_b) | set(text_a) | set(text_b)):
    what = [kind for kind, a_side, b_side in (
        ("json", json_a, json_b), ("text", text_a, text_b))
        if a_side.get(name) != b_side.get(name)]
    if what:
        differ[name] = what
        print(f"DIFFERS: {name} ({', '.join(what)})")
        moved = list(paths(json_a.get(name, ABSENT), json_b.get(name, ABSENT), name))
        for at, x, y in moved[:5]:
            print(f"    {at}: A {shown(x)}  B {shown(y)}")
        if len(moved) > 5:
            print(f"    ... {len(moved) - 5} more paths differ")
print(f"{len(set(json_a) | set(json_b))} experiments, {len(differ)} differ")
def example(tree, name):
    if not os.path.exists(os.path.join(tree, "examples", name)):
        return None
    done = subprocess.run(
        [sys.executable, os.path.join("examples", name)],
        cwd=tree, capture_output=True, text=True, env=env(tree))
    if done.returncode:
        sys.exit(f"{tree}: example {name} failed\n{done.stderr}")
    return done.stdout
examples = sorted({
    os.path.basename(path) for tree in (a, b)
    for path in glob.glob(os.path.join(tree, "examples", "*.py"))})
examples_differ = 0
for name in examples:
    if example(os.path.abspath(a), name) != example(os.path.abspath(b), name):
        examples_differ += 1
        print(f"DIFFERS: example {name}")
print(f"{len(examples)} examples, {examples_differ} differ")
sys.exit(1 if differ or examples_differ else 0)
endef
export QUICK_DIFF
quick-diff:
	@test -d "$(A)" -a -d "$(B)" || { \
		echo "usage: make quick-diff A=<checkout> B=<checkout>"; exit 2; }
	@python3 -c "$$QUICK_DIFF" "$(A)" "$(B)"

# Complexity/length guard for src/repro/transport/ (C901, PLR0915);
# ruff is not vendored — install it locally to run this target.
lint-endpoints:
	ruff check src/repro/transport/

experiments:
	python -m repro.experiments --all --json results.json

quick-experiments:
	python -m repro.experiments --all --quick

examples:
	python examples/quickstart.py
	python examples/custom_scheme.py
	python examples/dissimilar_links.py
	python examples/lossy_channels.py
	python examples/video_striping.py
	python examples/fault_tolerance.py

clean:
	rm -rf .pytest_cache .hypothesis .benchmarks build dist *.egg-info
	find . -name __pycache__ -type d -exec rm -rf {} +
