"""Run one benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload reproduce-cold --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``: with ``--trace 0``
the end-to-end metrics, with ``--trace 1`` the per-layer ones (see
``perfbench/NOTES.md``).  Lines before it name every metric with its
unit for a human reader.  The run exits 1 if any correctness check
fails and 2 if the checkout holds no program to measure.

All work sits behind the ``__main__`` guard: process pools started with
``spawn`` re-import the main module in every worker.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
HASH_SEED = "0"
#: Scratch space for stores and logs, removed when the run ends.
WORK_ROOT = ROOT / ".perfbench_work"


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # String hashing decides set and dict iteration order, and the
        # program's cost depends on that order (delta-replay's wall time
        # moves by a quarter between two hash seeds).  Pin it, for this
        # process and every process it starts, so runs compare code.
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable, [sys.executable, *sys.argv])
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    # The program reads REPRO_* knobs from the environment; the benchmark
    # fixes every setting it depends on, so none may leak in.
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        del os.environ[name]
    if args.trace:
        # Build spans then carry the high-water RSS at their close.
        os.environ["REPRO_SPAN_RSS"] = "1"
    sys.path.insert(0, str(SRC))

    from common import END_TO_END, PER_LAYER
    from workloads import WORKLOADS, Context

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    # Spill files and other temporaries of this process and its children
    # stay inside the run's own directory.
    os.environ["TMPDIR"] = str(workdir)
    tempfile.tempdir = None
    try:
        outcome = workload(Context(workdir, SRC, bool(args.trace)), args.seed, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run still uses it

    units = PER_LAYER if args.trace else END_TO_END
    values = outcome.per_layer() if args.trace else outcome.end_to_end()
    for name, ok in outcome.checks.items():
        print(f"check {'ok  ' if ok else 'FAIL'} {name}")
    for label, count in sorted(outcome.errors.items()):
        print(f"failed op x{count}: {label}")
    for name, unit in units.items():
        print(f"{name} {values[name]:.6g} {unit}")
    correct = bool(outcome.checks) and all(outcome.checks.values())
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": {
                    name: {"value": values[name], "unit": unit} for name, unit in units.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
