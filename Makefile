# Convenience targets for the reproduction repo.

.PHONY: install test bench experiments quick-experiments examples clean \
	smoke lint-endpoints

install:
	pip install -e . || python setup.py develop

test:
	pytest tests/

bench:
	pytest benchmarks/ --benchmark-only

# End-to-end check beyond `make test`: the chaos, reliability, fabric and
# recovery experiments run to completion at --quick, then the two
# behavioural benchmarks assert their acceptance bars at quick settings
# (Sprinklers: zero reorder / zero receiver memory / zero markers on
# stable transports; FEC: hybrid goodput >= pure ARQ at every point).
smoke:
	PYTHONPATH=src python -m repro.experiments.runner --quick \
		chaos reliability fabric recovery
	SPRINKLERS_BENCH_QUICK=1 PYTHONPATH=src pytest \
		benchmarks/test_bench_sprinklers.py -x -q
	FEC_BENCH_TOTAL_S=0.4 FEC_BENCH_RATES=0.03,0.10 \
		PYTHONPATH=src pytest benchmarks/test_bench_fec.py -x -q

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
