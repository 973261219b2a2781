# Convenience targets for the reproduction repo.

.PHONY: install test bench experiments quick-experiments examples clean \
	smoke lint-endpoints perf perf-ab frames quick-diff

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
# per packet for the five workload shapes at 0.02 scale (seconds to run;
# tests/integration/test_call_counts.py guards bounds on the same rigs).
#   make frames            the table
#   make frames TOP=25     plus the 25 busiest functions under each shape
frames:
	PYTHONPATH=src python -m tests.frames $(if $(TOP),--top $(TOP))

# A/B of one workload between two checkouts, the way the benchmark driver
# measures a claim: PAIRS (10) pairs of driver-form runs on one seed,
# alternating which side runs first, then each side's median and quartiles
# of wall_ns_per_pkt and how many pairs B won.
#   make perf-ab W=skewed_small A=/tmp/parent B=. SEED=31337
PAIRS ?= 10
define PERF_AB
import json, subprocess, sys
from statistics import median, quantiles
workload, a, b, seed, pairs = sys.argv[1:]
def run(tree):
    done = subprocess.run(
        ["python3", "-m", "perfbench", "--workload", workload, "--seed", seed,
         "--seconds", "20", "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    if done.returncode:
        sys.exit(f"{tree}: perfbench failed\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return result["metrics"]["wall_ns_per_pkt"]["value"]
walls = {a: [], b: []}
for pair in range(int(pairs)):
    for tree in ((a, b) if pair % 2 == 0 else (b, a)):
        walls[tree].append(run(tree))
    print(f"pair {pair}: A {walls[a][-1]:.0f}  B {walls[b][-1]:.0f}  "
          f"B/A {walls[b][-1] / walls[a][-1]:.3f}", flush=True)
for side, tree in (("A", a), ("B", b)):
    q1, _, q3 = quantiles(walls[tree], n=4)
    print(f"{side} {tree}: median {median(walls[tree]):.0f} ns/pkt, "
          f"quartiles {q1:.0f}..{q3:.0f} ({q3 - q1:.0f} apart)")
wins = sum(y < x for x, y in zip(walls[a], walls[b]))
ties = sum(y == x for x, y in zip(walls[a], walls[b]))
print(f"{workload} seed {seed}: B ahead in {wins} of {pairs} pairs, {ties} tied")
endef
export PERF_AB
perf-ab:
	@test -n "$(W)" -a -n "$(SEED)" -a -d "$(A)" -a -d "$(B)" || { \
		echo "usage: make perf-ab W=<workload> A=<checkout> B=<checkout> SEED=<n>"; \
		exit 2; }
	@python3 -c "$$PERF_AB" "$(W)" "$(A)" "$(B)" "$(SEED)" "$(PAIRS)"

# Behavioural A/B of two checkouts: every experiment at --quick in both
# trees, then the result JSON compared per experiment and the rendered text
# compared minus the wall-clock `done in` lines.  Names every experiment
# that differs and exits non-zero — the check a refactoring PR owes.
#   make quick-diff A=/tmp/parent B=.
define QUICK_DIFF
import json, os, re, subprocess, sys, tempfile
a, b = sys.argv[1:]
def run(tree):
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "quick.json")
        done = subprocess.run(
            [sys.executable, "-m", "repro.experiments", "--all", "--quick",
             "--json", out],
            cwd=tree, capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": os.path.join(tree, "src")})
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
differ = sorted(
    name for name in set(json_a) | set(json_b) | set(text_a) | set(text_b)
    if json_a.get(name) != json_b.get(name)
    or text_a.get(name) != text_b.get(name))
for name in differ:
    print(f"DIFFERS: {name}")
print(f"{len(set(json_a) | set(json_b))} experiments, {len(differ)} differ")
sys.exit(1 if differ else 0)
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
