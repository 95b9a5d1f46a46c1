"""Shard-parity smoke: sharded builds, spilled builds and mapped loads
change nothing.

Builds the same (scale, seed) world twice — once serially and once with
the build stages sharded across worker processes (``--shards``, fanned
over ``--jobs`` workers) — bypassing every cache, and fails unless the
two worlds hash to the same digest.  With ``--budget-mb`` one more
sharded build runs under that (tiny) ``build_budget_mb``, so every
sharded stage's column accumulator spills completed blocks to its
scratch file; it must digest-match too, and must actually have spilled
(``build.spill.blocks`` > 0), or it tested nothing.  The sharded world
is then pushed through a checkpoint round-trip and re-opened twice,
with its columns memory-mapped and with mapping off (``REPRO_MMAP=0``);
every digest must agree, and each re-open must have taken its own load
path.  The sharded build must also have run on its worker pools — at
least two pool maps (collection and transit scoring), no discarded
shard set and no unavailable pool — or the digest comparison would be
serial against serial.  This is the CI gate behind ``make scale-smoke``
and, with ``--budget-mb``, ``make build-smoke``.

Usage::

    PYTHONPATH=src python scripts/check_shard_parity.py --scale 0.5 \
        --shards 2 --jobs 2
    PYTHONPATH=src python scripts/check_shard_parity.py --scale 0.3 \
        --shards 2 --jobs 2 --budget-mb 0.05
"""

from __future__ import annotations

import argparse
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.config import RuntimeConfig, use  # noqa: E402
from repro.datasets.checkpoint import (  # noqa: E402
    CheckpointStore,
    world_digest,
)
from repro.obs import metrics  # noqa: E402
from repro.scenario.build import _build_world  # noqa: E402
from repro.scenario.config import ScenarioConfig  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, default=0.5)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--shards", type=int, default=2)
    parser.add_argument("--jobs", type=int, default=2)
    parser.add_argument(
        "--budget-mb",
        type=float,
        default=None,
        help="also build sharded under this spill budget (tiny: it must spill)",
    )
    args = parser.parse_args(argv)

    digests: dict[str, str] = {}
    timings: dict[str, float] = {}

    start = time.perf_counter()
    serial = _build_world(args.scale, args.seed, None, None, None, None, 1)
    timings["serial"] = time.perf_counter() - start
    digests["serial"] = world_digest(serial)
    del serial

    if args.budget_mb is not None:
        before = metrics.counters().get("build.spill.blocks", 0)
        start = time.perf_counter()
        with use(RuntimeConfig.resolve(build_budget_mb=args.budget_mb)):
            budgeted = _build_world(
                args.scale, args.seed, None, None, None, args.jobs, args.shards
            )
        timings["budgeted"] = time.perf_counter() - start
        spilled = metrics.counters().get("build.spill.blocks", 0) - before
        if spilled <= 0:
            print(
                f"SHARD PARITY FAIL: budget {args.budget_mb}MB never spilled "
                "— the leg exercised nothing; lower --budget-mb",
                file=sys.stderr,
            )
            return 1
        print(f"budgeted: {spilled} blocks spilled", file=sys.stderr)
        digests["budgeted"] = world_digest(budgeted)
        del budgeted

    pool_counters = ("shard.pool_maps", "shard.discarded", "shard.pool_unavailable")
    before = {name: metrics.counters().get(name, 0) for name in pool_counters}
    start = time.perf_counter()
    sharded = _build_world(
        args.scale, args.seed, None, None, None, args.jobs, args.shards
    )
    timings["sharded"] = time.perf_counter() - start
    pools = {
        name: metrics.counters().get(name, 0) - before[name]
        for name in pool_counters
    }
    if (
        pools["shard.pool_maps"] < 2
        or pools["shard.discarded"]
        or pools["shard.pool_unavailable"]
    ):
        print(
            f"SHARD PARITY FAIL: the sharded build fell back ({pools})",
            file=sys.stderr,
        )
        return 1
    digests["sharded"] = world_digest(sharded)

    with tempfile.TemporaryDirectory(prefix="repro-shard-parity-") as tmp:
        store = CheckpointStore(tmp)
        store.save(sharded)
        del sharded
        for label, mmap in (("mmap", True), ("unmapped", False)):
            start = time.perf_counter()
            with use(RuntimeConfig(mmap=mmap)):
                world = store.load(ScenarioConfig(), args.scale, args.seed)
            timings[label] = time.perf_counter() - start
            if world is None:
                print(f"SHARD PARITY FAIL: {label} load missed", file=sys.stderr)
                return 1
            if world._columns.arrays.mapped != mmap:
                print(
                    f"SHARD PARITY FAIL: {label} load took the wrong path",
                    file=sys.stderr,
                )
                return 1
            digests[label] = world_digest(world)
            del world

    for label in digests:
        print(
            f"{label}: {timings[label]:.3f}s digest={digests[label][:16]}…",
            file=sys.stderr,
        )
    if len(set(digests.values())) != 1:
        lines = "\n".join(f"  {k}: {v}" for k, v in digests.items())
        print(f"SHARD PARITY FAIL: digests diverge\n{lines}", file=sys.stderr)
        return 1
    print(
        f"shard parity OK at scale {args.scale} seed {args.seed} "
        f"({args.shards} shards, {args.jobs} jobs)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
