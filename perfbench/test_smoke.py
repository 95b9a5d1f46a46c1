"""Tiny-scale smoke test of every workload.

    PYTHONPATH=src python -m pytest perfbench/test_smoke.py -q

Each workload runs on a world small enough to finish in seconds, traced
and untraced; the test asserts that every metric named in
``BENCHMARK.json`` is emitted (end-to-end ones non-zero) and that every
correctness check passes.  The benchmark's copies of program tables
(the experiment names, the event mix) are pinned to the program's.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from common import BENCHMARK, END_TO_END, EXPERIMENTS, PER_LAYER  # noqa: E402
from workloads import EVENT_SHARES, WORKLOADS, Context  # noqa: E402

from repro.delta import EVENT_KINDS  # noqa: E402
from repro.delta.trace import _WEIGHTED_KINDS  # noqa: E402
from repro.experiments.registry import REGISTRY  # noqa: E402

TINY = {
    "reproduce-cold": dict(scale=0.05),
    "build-sharded": dict(scale=0.1, budget_mb=1),
    "serve-warm": dict(scale=0.05),
    "delta-replay": dict(scale=0.05, n_events=24),
}


def test_benchmark_json_names_the_workloads():
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(WORKLOADS)


def test_copied_program_tables_match_the_program():
    assert EXPERIMENTS == tuple(REGISTRY)
    assert tuple(zip(EVENT_KINDS, EVENT_SHARES)) == _WEIGHTED_KINDS


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("workload", sorted(TINY))
def test_workload_emits_every_metric_and_passes_its_checks(workload, trace, tmp_path):
    outcome = WORKLOADS[workload](
        Context(tmp_path, ROOT / "src", trace), 3, 2.0, **TINY[workload]
    )
    assert outcome.checks and all(outcome.checks.values()), outcome.checks
    assert outcome.attempted >= 1
    end_to_end = outcome.end_to_end()
    assert set(end_to_end) == set(END_TO_END)
    assert all(value > 0 for value in end_to_end.values()), end_to_end
    assert set(outcome.per_layer()) == set(PER_LAYER)


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "reproduce-cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
