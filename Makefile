# Convenience targets for the JAVMM reproduction.

PYTHON ?= python

.PHONY: install test lint bench check-bench perfbench figures all-experiments clean

install:
	pip install -e . --no-build-isolation

# Mirrors CI (.github/workflows/ci.yml): run from the source tree,
# no install step required.
test:
	PYTHONPATH=src $(PYTHON) -m pytest -x -q

# Mirrors the CI lint job; requires ruff (pip install ruff).
lint:
	ruff check src tests benchmarks examples

# The gate scripts and baseline diffs, then the figure/table suite.
bench: check-bench
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -s

# Bench-regression gate (mirrors the CI bench-regression job): each
# script:baselines entry runs its gates, then `repro compare`s its output
# against each baseline; docs/OBSERVABILITY.md ("The overhead harness")
# states the chain and gates.  Outputs go to a fresh `mktemp -d` dir.
check-bench:
	@out=$$(mktemp -d -t check-bench.XXXXXX); failed=""; \
	for entry in benchmarks/harness.py:BENCH_PR3,BENCH_PR4,BENCH_PR8,BENCH_PR9 \
	             benchmarks/bench_pr5_kernel.py:BENCH_PR5 \
	             benchmarks/bench_pr6_checkpoint.py:BENCH_PR6 \
	             benchmarks/bench_pr7_wan.py:BENCH_PR7 \
	             benchmarks/bench_pr10_service.py:BENCH_PR10; do \
	  script=$${entry%%:*}; json=$$out/$$(basename $$script .py).json; \
	  PYTHONPATH=src $(PYTHON) $$script $$json || failed="$$failed $$script"; \
	  for base in $$(echo $${entry#*:} | tr , ' '); do \
	    PYTHONPATH=src $(PYTHON) -m repro.cli compare $$base.json $$json \
	      || failed="$$failed $$base"; \
	  done; \
	done; \
	echo "bench outputs in $$out"; \
	if [ -n "$$failed" ]; then echo "check-bench failed:$$failed"; exit 1; fi

# Repo benchmark by hand (no CI job: timings on shared runners are
# noise).  `make perfbench SEED=7` runs both gated workloads.
SEED ?= 1
perfbench:
	python3 perfbench/run.py --workload lan-paper --seed $(SEED) --seconds 12 --trace 0
	python3 perfbench/run.py --workload ops-fleet --seed $(SEED) --seconds 12 --trace 0

figures:
	$(PYTHON) -m repro.cli all

all-experiments: figures

# The two artifacts the reproduction ships with.
outputs:
	$(PYTHON) -m pytest tests/ 2>&1 | tee test_output.txt
	$(PYTHON) -m pytest benchmarks/ --benchmark-only 2>&1 | tee bench_output.txt

clean:
	rm -rf .pytest_cache .hypothesis src/repro.egg-info
	find . -name __pycache__ -type d -exec rm -rf {} +
