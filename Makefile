# Developer entry points.  All targets assume the repo root as CWD and
# need no installation: PYTHONPATH=src is injected here.

PYTHON ?= python
PYTHONPATH := src
export PYTHONPATH

WORKLOAD ?= reproduce-cold
SEED ?= 1

.PHONY: test lint bench bench-pytest build-smoke trace-smoke sweep-smoke scale-smoke serve-smoke delta-smoke scenarios-smoke

## Tier-1 test suite (unit + integration + equivalence).
test:
	$(PYTHON) -m pytest -x -q

## Static checks (ruff; config in pyproject.toml).  Skips gracefully
## when ruff is not installed so minimal containers can still run make.
lint:
	@if $(PYTHON) -c "import ruff" 2>/dev/null; then \
		$(PYTHON) -m ruff check src tests; \
	else \
		echo "ruff not installed; skipping lint"; \
	fi

## Observability tripwire: a tiny reproduce run must emit a parseable
## trace whose span tree covers the build and every registry experiment.
trace-smoke:
	$(PYTHON) -m repro reproduce --scale 0.05 --trace-json /tmp/trace-smoke.json > /dev/null
	$(PYTHON) scripts/check_trace.py /tmp/trace-smoke.json

## The repository benchmark (perfbench/, declared in BENCHMARK.json):
## one workload for 20 s, one JSON record on stdout.  Workloads:
## reproduce-cold, build-sharded, serve-warm, delta-replay.
bench:
	python3 perfbench/run.py --workload $(WORKLOAD) --seed $(SEED) --seconds 20

## The paper's shape claims (EXPERIMENTS.md's check column): every
## table/figure assertion under benchmarks/, without timing.
bench-pytest:
	$(PYTHON) -m pytest benchmarks/ -q --benchmark-disable

## Shard-parity tripwire: a scale-0.5 world built with 2 column shards
## on 2 workers must be digest-identical to the single-process build,
## and to its own checkpoint re-opened with mmap on and with mmap off.
scale-smoke:
	$(PYTHON) scripts/check_shard_parity.py --scale 0.5 --shards 2 --jobs 2

## Spill-path tripwire: the same parity check at scale 0.3 plus one
## more sharded build under a tiny build budget (forcing the column
## accumulators to spill to scratch files), which must be
## digest-identical to the serial build and must actually have spilled.
build-smoke:
	$(PYTHON) scripts/check_shard_parity.py --scale 0.3 --shards 2 --jobs 2 \
		--budget-mb 0.05

## Measurement-service smoke: start `repro serve` as a subprocess, then
## liveness -> cold build -> warm hit -> 304 -> metrics -> SIGINT.
serve-smoke:
	$(PYTHON) scripts/check_serve.py

## Delta smoke: `repro replay` in a subprocess — a short synthetic event
## trace applied incrementally must digest-equal cold rebuilds at three
## instants (the replay==rebuild invariant, end to end).
delta-smoke:
	$(PYTHON) scripts/check_delta.py

## Scenario-pack smoke: every family in repro.scenarios runs on the
## pinned world and must match its golden digest.
scenarios-smoke:
	$(PYTHON) scripts/check_scenarios.py

## Sweep orchestrator smoke: run -> resume -> report on the example
## grid, against a throwaway cache/ledger directory.
sweep-smoke:
	rm -rf /tmp/repro-sweep-smoke
	REPRO_CACHE_DIR=/tmp/repro-sweep-smoke $(PYTHON) -m repro sweep run examples/sweep_smoke.json --workers 2
	REPRO_CACHE_DIR=/tmp/repro-sweep-smoke $(PYTHON) -m repro sweep resume examples/sweep_smoke.json
	REPRO_CACHE_DIR=/tmp/repro-sweep-smoke $(PYTHON) -m repro sweep report examples/sweep_smoke.json
