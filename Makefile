# Developer entry points.  All targets assume the repo root as CWD and
# need no installation: PYTHONPATH=src is injected here.

PYTHON ?= python
PYTHONPATH := src
export PYTHONPATH

JOBS ?=
SCALE ?= 1.0
LABEL ?= local
SMOKE_BUDGET ?= 120

.PHONY: test lint bench bench-baseline bench-pytest bench-smoke bench-compare build-smoke profile smoke-profile trace-smoke sweep-smoke scale-smoke serve-smoke delta-smoke scenarios-smoke

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

## Substrate benchmarks: end-to-end build + timeline, written to
## BENCH_$(LABEL).json.  JOBS=4 sizes the shard pools (with REPRO_SHARDS>1).
bench:
	$(PYTHON) benchmarks/run.py --label $(LABEL) --scale $(SCALE) \
		$(if $(JOBS),--jobs $(JOBS))

## Paper-analysis benchmarks (pytest-benchmark; one per table/figure).
bench-pytest:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

## Kernel-parity tripwire: a scale-0.1 world must be digest-identical
## under REPRO_KERNELS=python and =numpy (uncached builds, both modes).
bench-smoke:
	$(PYTHON) scripts/check_kernel_parity.py --scale 0.1

## Shard-parity tripwire: a scale-0.5 world built with 2 column shards
## on 2 workers must be digest-identical to the single-process build,
## and to its own checkpoint re-opened mmap'd and eagerly.
scale-smoke:
	$(PYTHON) scripts/check_shard_parity.py --scale 0.5 --shards 2 --jobs 2

## Spill-path tripwire: a small sharded build under a tiny
## REPRO_BUILD_BUDGET_MB (forcing the column accumulators to spill to
## scratch files) must be digest-identical to the unbudgeted build in
## both kernel modes, and must actually have spilled.
build-smoke:
	$(PYTHON) scripts/check_build_budget.py --scale 0.3 --shards 2 --jobs 2 \
		--budget-mb 0.05

## Regenerate benchmarks/BASELINE.json from a trusted local run.
## Refuses to overwrite the committed baseline when world digests
## drifted; acknowledge an intentional world change with
## BASELINE_FLAGS=--expect-digest-change.
BASELINE_FLAGS ?=
bench-baseline:
	$(PYTHON) scripts/refresh_baseline.py $(BASELINE_FLAGS)

## Perf gate: one quick benchmark run compared against the committed
## baseline.  COMPARE_MODE=all (default) exits 3 on >25% regression or
## digest drift; COMPARE_MODE=digests (the CI setting) warns on timing
## and exits 3 on digest drift only.
COMPARE_MODE ?= all
bench-compare:
	$(PYTHON) benchmarks/run.py --label compare --scale 0.3 --rounds 3 \
		--scale-sweep 0.3 --output-dir /tmp \
		--compare benchmarks/BASELINE.json \
		--compare-mode $(COMPARE_MODE)

## Stage-level wall-clock breakdown of one full-scale build.
profile:
	REPRO_PERF=1 $(PYTHON) benchmarks/run.py --label profile --rounds 1 \
		--scale $(SCALE) --output-dir /tmp $(if $(JOBS),--jobs $(JOBS))

## CI tripwire: scale-0.3 end-to-end build must fit a generous budget.
smoke-profile:
	$(PYTHON) benchmarks/run.py --smoke --budget $(SMOKE_BUDGET) \
		--label smoke --output-dir /tmp

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
## pinned world in both kernel modes and must match its golden digest.
scenarios-smoke:
	$(PYTHON) scripts/check_scenarios.py

## Sweep orchestrator smoke: run -> resume -> report on the example
## grid, against a throwaway cache/ledger directory.
sweep-smoke:
	rm -rf /tmp/repro-sweep-smoke
	REPRO_CACHE_DIR=/tmp/repro-sweep-smoke $(PYTHON) -m repro sweep run examples/sweep_smoke.json --workers 2
	REPRO_CACHE_DIR=/tmp/repro-sweep-smoke $(PYTHON) -m repro sweep resume examples/sweep_smoke.json
	REPRO_CACHE_DIR=/tmp/repro-sweep-smoke $(PYTHON) -m repro sweep report examples/sweep_smoke.json
