"""Substrate benchmark runner: end-to-end build timings as a JSON trajectory.

Times the two substrate workloads every paper artefact sits on —
``build_world`` (topology → RPKI/IRR → propagation → RIB → IHR) and the
annual ``Timeline`` sweep — and writes a ``BENCH_<label>.json`` file with
mean/stddev per benchmark plus the run's provenance (scale, seed, jobs,
git revision, python).  Committing one file per PR gives a perf
trajectory future changes can be compared against.

Usage::

    PYTHONPATH=src python benchmarks/run.py --label pr1            # full scale
    PYTHONPATH=src python benchmarks/run.py --label pr1 --jobs 4
    PYTHONPATH=src python benchmarks/run.py --smoke --budget 60    # CI gate
    PYTHONPATH=src python benchmarks/run.py --experiments          # + registry
    PYTHONPATH=src python benchmarks/run.py --kernels              # + per-kernel
    PYTHONPATH=src python benchmarks/run.py --sweep                # + orchestrator
    PYTHONPATH=src python benchmarks/run.py --delta                # + event replay
    PYTHONPATH=src python benchmarks/run.py --scale-sweep 0.5 1 2  # + per-scale
    PYTHONPATH=src python benchmarks/run.py --compare BASELINE.json

``--experiments`` additionally times every experiment in
``repro.experiments.REGISTRY`` once on a built world, recording one
entry per experiment name.  The written payload always embeds the
observability snapshot (``repro.obs``: flat stage timings plus process
counters such as cache hit rates and routes propagated).

``--smoke`` runs one round at ``--scale 0.3`` (unless overridden) and
exits 1 if the end-to-end mean exceeds ``--budget`` seconds — a cheap
regression tripwire for CI.

``--scale-sweep S1 S2 ...`` measures each scale in a *fresh
subprocess* (so peak RSS is per-scale, not cumulative): one cold
sharded build + checkpoint save, one warm memory-mapped columnar load,
one warm eager load — recording wall time, peak RSS
(``resource.getrusage``) and the world digest per point.  The three
digests must agree; the rows land under ``scale_sweep`` in the JSON.

``--compare BASELINE.json`` re-reads a committed baseline payload after
the run and exits 3 if any shared benchmark's mean regressed by more
than ``--compare-threshold`` (default 25%) or any digest drifted.
``--compare-mode digests`` demotes the timing class to warnings and
exits 3 on digest drift only — the CI gate, where hosted-runner timing
noise must not block merges but a world that builds differently must.

``--sweep`` measures the ``repro.sweep`` orchestrator: an 8-job grid
(one experiment, 8 seeds at ``--sweep-scale``) is run once to warm a
shared checkpoint store, then re-run from scratch ledgers at 1 worker
and at ``--sweep-workers`` workers, recording jobs/min per worker count
and the parallel speedup under the ``sweep`` key.

Unless ``--no-warm-start`` is passed, the run also measures the
checkpoint store (``repro.datasets.checkpoint``): one cold build vs one
warm load from a freshly saved entry, recorded under ``warm_start`` with
the speedup and a cold/warm digest-equality check.

The paper-analysis benchmarks live in the pytest-benchmark suite
(``pytest benchmarks/ --benchmark-only``); this script covers the
substrate underneath them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro import kernels, obs  # noqa: E402
from repro.bench import compare_payloads, split_compare_problems  # noqa: E402,F401
from repro.experiments.registry import REGISTRY  # noqa: E402
from repro.scenario.build import build_world  # noqa: E402
from repro.scenario.timeline import Timeline  # noqa: E402


def peak_rss_mb() -> float:
    """This process's high-water RSS in MiB (``ru_maxrss`` is KiB on Linux)."""
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_warm_start(
    scale: float, seed: int, jobs: int | None, shards: int | None = None
) -> dict:
    """Cold-build vs checkpoint-load timings for one world.

    Builds cold, saves a checkpoint into a temporary store, loads it
    back, and reports both wall times plus the speedup and whether the
    warm world is digest-identical to the cold one (it must be — the
    digests are part of the payload so a regression is visible in the
    BENCH trajectory, not just in the test suite).
    """
    import tempfile

    from repro.datasets.checkpoint import CheckpointStore, world_digest
    from repro.scenario.config import ScenarioConfig

    start = time.perf_counter()
    world = build_world(scale=scale, seed=seed, jobs=jobs, shards=shards)
    cold = time.perf_counter() - start

    with tempfile.TemporaryDirectory(prefix="repro-bench-cache-") as tmp:
        store = CheckpointStore(tmp)
        start = time.perf_counter()
        store.save(world)
        save = time.perf_counter() - start
        start = time.perf_counter()
        warm_world = store.load(ScenarioConfig(), scale, seed)
        warm = time.perf_counter() - start
    digest_equal = (
        warm_world is not None
        and world_digest(warm_world) == world_digest(world)
    )
    print(
        f"warm start: cold={cold:.3f}s save={save:.3f}s warm={warm:.3f}s "
        f"speedup={cold / warm:.2f}x digest_equal={digest_equal}",
        file=sys.stderr,
    )
    return {
        "cold_build_seconds": cold,
        "save_seconds": save,
        "warm_load_seconds": warm,
        "speedup": cold / warm,
        "digest_equal": digest_equal,
    }


def percentiles(samples: list[float]) -> dict:
    """n plus p50/p95/p99 of ``samples`` (seconds) in milliseconds."""
    ordered = sorted(samples)

    def pct(p: float) -> float:
        if not ordered:
            return 0.0
        index = round(p / 100 * (len(ordered) - 1))
        return ordered[min(len(ordered) - 1, max(0, index))]

    return {
        "n": len(ordered),
        "p50_ms": round(pct(50) * 1000, 3),
        "p95_ms": round(pct(95) * 1000, 3),
        "p99_ms": round(pct(99) * 1000, 3),
    }


def run_serve_bench(
    scale: float, requests: int, workers: int = 2, fanout: int = 16
) -> dict:
    """Latency and throughput of the measurement service.

    Starts a real :class:`repro.serve.ReproService` (ephemeral port,
    throwaway store, the production spawn-based build pool) and measures
    three request populations: *cold* (distinct seeds, each triggering
    one pool build), *hot serial* (one cached key, fresh connection per
    request — per-request latency), and *hot concurrent* (``fanout``
    in-flight requests at a time — cache-hit QPS).  A final
    If-None-Match request pins the 304 path.
    """
    import asyncio
    import tempfile

    from repro.datasets.checkpoint import CheckpointStore
    from repro.serve import ReproService, http_get

    async def drive() -> dict:
        with tempfile.TemporaryDirectory() as tmp:
            service = ReproService(store=CheckpointStore(tmp), workers=workers)
            await service.start(port=0)
            try:
                host, port = "127.0.0.1", service.port
                cold: list[float] = []
                for seed in range(8):
                    target = f"/experiments/fig2?scale={scale:g}&seed={seed}"
                    start = time.perf_counter()
                    status, _headers, _body = await http_get(
                        host, port, target, timeout=600
                    )
                    cold.append(time.perf_counter() - start)
                    assert status == 200, f"cold request failed: {status}"
                hot_target = f"/experiments/fig2?scale={scale:g}&seed=0"
                status, headers, _body = await http_get(host, port, hot_target)
                etag = headers["etag"]
                hot: list[float] = []
                for _ in range(requests):
                    start = time.perf_counter()
                    status, _headers, _body = await http_get(
                        host, port, hot_target
                    )
                    hot.append(time.perf_counter() - start)
                    assert status == 200, f"hot request failed: {status}"
                serial_qps = len(hot) / sum(hot) if hot else 0.0
                start = time.perf_counter()
                done = 0
                while done < requests:
                    batch = min(fanout, requests - done)
                    results = await asyncio.gather(
                        *[
                            http_get(host, port, hot_target)
                            for _ in range(batch)
                        ]
                    )
                    assert all(r[0] == 200 for r in results)
                    done += batch
                concurrent_qps = done / (time.perf_counter() - start)
                status_304, _headers, body_304 = await http_get(
                    host, port, hot_target, headers={"if-none-match": etag}
                )
                return {
                    "scale": scale,
                    "workers": workers,
                    "cold": percentiles(cold),
                    "hot": {
                        **percentiles(hot),
                        "qps_serial": round(serial_qps, 1),
                        "qps_concurrent": round(concurrent_qps, 1),
                        "fanout": fanout,
                    },
                    "not_modified_304": status_304 == 304 and not body_304,
                }
            finally:
                await service.stop()

    result = asyncio.run(drive())
    print(
        f"serve: cold p50={result['cold']['p50_ms']:.0f}ms "
        f"hot p50={result['hot']['p50_ms']:.1f}ms "
        f"p99={result['hot']['p99_ms']:.1f}ms "
        f"qps serial={result['hot']['qps_serial']:.0f} "
        f"concurrent={result['hot']['qps_concurrent']:.0f} "
        f"304={result['not_modified_304']}",
        file=sys.stderr,
    )
    return result


def run_sweep_bench(sweep_scale: float, max_workers: int) -> dict:
    """Sweep-orchestrator throughput: jobs/min at 1 vs ``max_workers``.

    The grid is 8 independent jobs (8 seeds, one experiment each).  The
    checkpoint store is warmed by one throwaway pass first, so both
    measured phases run warm-started jobs against fresh ledgers — the
    comparison isolates scheduler throughput and worker scaling from
    first-build cost.
    """
    import os
    import tempfile

    from repro.sweep import SweepSpec, run_sweep

    spec = SweepSpec(
        name="bench",
        scales=(sweep_scale,),
        seeds=tuple(range(1, 9)),
        experiment_sets=(("fig4",),),
        timeout=600.0,
        max_attempts=1,
        backoff=0.0,
    )
    n_jobs = len(spec.expand())
    # Parallel speedup is bounded by the host: on a single-core runner
    # the N-worker phase degenerates to time-slicing and the recorded
    # speedup hovers around 1.0x — the cores field makes that legible
    # in the BENCH trajectory instead of looking like a regression.
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (
        os.cpu_count() or 1
    )
    result: dict = {
        "scale": sweep_scale,
        "jobs": n_jobs,
        "cores": cores,
        "by_workers": {},
    }
    previous = os.environ.get("REPRO_CACHE_DIR")
    with tempfile.TemporaryDirectory(prefix="repro-bench-sweep-") as tmp:
        root = Path(tmp)
        os.environ["REPRO_CACHE_DIR"] = str(root / "cache")
        try:
            start = time.perf_counter()
            warm = run_sweep(spec, root / "ledger-warm", workers=max_workers)
            result["warm_pass_seconds"] = time.perf_counter() - start
            if not warm.ok:
                raise RuntimeError(f"sweep warm pass failed: {warm.failures}")
            for workers in (1, max_workers):
                start = time.perf_counter()
                outcome = run_sweep(
                    spec, root / f"ledger-w{workers}", workers=workers
                )
                elapsed = time.perf_counter() - start
                if not outcome.ok:
                    raise RuntimeError(
                        f"sweep bench failed at {workers} workers: "
                        f"{outcome.failures}"
                    )
                result["by_workers"][str(workers)] = {
                    "seconds": elapsed,
                    "jobs_per_minute": 60.0 * n_jobs / elapsed,
                }
                print(
                    f"sweep: {n_jobs} jobs at {workers} worker(s) in "
                    f"{elapsed:.2f}s "
                    f"({60.0 * n_jobs / elapsed:.1f} jobs/min)",
                    file=sys.stderr,
                )
        finally:
            if previous is None:
                os.environ.pop("REPRO_CACHE_DIR", None)
            else:
                os.environ["REPRO_CACHE_DIR"] = previous
    result["speedup"] = (
        result["by_workers"][str(max_workers)]["jobs_per_minute"]
        / result["by_workers"]["1"]["jobs_per_minute"]
    )
    print(
        f"sweep: {max_workers}-worker speedup {result['speedup']:.2f}x "
        f"on {cores} core(s)",
        file=sys.stderr,
    )
    return result


def run_delta_bench(
    scale: float, seed: int, events: int, event_seed: int
) -> dict:
    """Per-event incremental apply vs one cold rebuild of the same stream.

    Synthesizes ``events`` applicable events, times each
    :meth:`repro.delta.LiveWorld.apply` plus the final materialisation,
    then rebuilds the whole derived state cold from the same event list
    and checks the two worlds are digest-identical.  The headline number
    is ``speedup_apply`` — how many incremental applies fit in one cold
    rebuild — which is what makes event-stream replay viable at all.
    """
    from repro.datasets.checkpoint import world_digest
    from repro.delta import LiveWorld, cold_rebuild, synthesize_events

    world = build_world(scale=scale, seed=seed)
    stream = synthesize_events(world, n=events, seed=event_seed)
    live = LiveWorld(world)
    apply_samples: list[float] = []
    by_domain: dict[str, list[float]] = {}
    for event in stream:
        start = time.perf_counter()
        domain = live.apply(event)
        elapsed = time.perf_counter() - start
        apply_samples.append(elapsed)
        by_domain.setdefault(domain, []).append(elapsed)
    start = time.perf_counter()
    incremental = live.world()
    materialise_seconds = time.perf_counter() - start
    start = time.perf_counter()
    rebuilt = cold_rebuild(world, stream)
    cold_seconds = time.perf_counter() - start
    digest_equal = world_digest(incremental) == world_digest(rebuilt)
    mean_apply = statistics.fmean(apply_samples)
    result = {
        "scale": scale,
        "seed": seed,
        "event_seed": event_seed,
        "events": len(apply_samples),
        "apply": {
            **percentiles(apply_samples),
            "mean_ms": round(mean_apply * 1000, 3),
            "max_ms": round(max(apply_samples) * 1000, 3),
        },
        "by_domain": {
            domain: percentiles(samples)
            for domain, samples in sorted(by_domain.items())
        },
        "materialise_seconds": materialise_seconds,
        "cold_rebuild_seconds": cold_seconds,
        # Cold rebuilds amortise over the whole stream; incremental pays
        # per event.  This is the per-event advantage.
        "speedup_apply": cold_seconds / mean_apply,
        "digest_equal": digest_equal,
    }
    print(
        f"delta: {len(apply_samples)} events, apply p50="
        f"{result['apply']['p50_ms']:.1f}ms mean={mean_apply * 1000:.1f}ms, "
        f"materialise={materialise_seconds:.3f}s "
        f"cold={cold_seconds:.3f}s "
        f"speedup_apply={result['speedup_apply']:.1f}x "
        f"digest_equal={digest_equal}",
        file=sys.stderr,
    )
    return result


def run_kernels(
    scale: float, seed: int, jobs: int | None, rounds: int
) -> dict[str, dict]:
    """Per-kernel microbenchmarks: python vs numpy on one built world.

    Each kernel is timed through the public API it sits behind, with the
    relevant memo/index state reset per round so every round pays the
    real bulk-path cost (index construction included — each mode builds
    its own lookup structure, so that cost is part of the comparison).
    Both modes' outputs are compared for equality and the verdict is
    recorded next to the timings.
    """
    import os

    from repro.bgp.policy import RouteClass
    from repro.bgp.propagation import PropagationEngine
    from repro.ihr.pipeline import build_ihr_dataset
    from repro.irr.validation import validate_irr_many
    from repro.rpki.rov import ROVValidator
    from repro.rpki.validator import RelyingParty

    world = build_world(scale=scale, seed=seed, jobs=jobs)
    vrps = RelyingParty(world.rpki_repository).validate(
        world.snapshot_date
    ).vrps
    routes = [
        (origination.prefix, asn)
        for asn in sorted(world.originations)
        for origination in world.originations[asn]
    ]
    route_class = RouteClass(rpki_invalid=False, irr_invalid=False)
    paths_keys = [(group.origin, route_class) for group in world.rib.groups]

    def _reset_irr() -> None:
        world.irr.__dict__.pop("_validation_memo", None)
        world.irr.__dict__.pop("_interval_index", None)

    def bench_rov() -> object:
        return ROVValidator(vrps).validate_many(routes)

    def bench_irr() -> object:
        _reset_irr()
        return validate_irr_many(world.irr, routes)

    def bench_saturation() -> object:
        timeline = Timeline(world)
        return timeline.saturation_series()

    def bench_ihr() -> object:
        _reset_irr()
        return build_ihr_dataset(
            world.rib, ROVValidator(vrps), world.irr, world.topology
        )

    def bench_propagation() -> object:
        engine = PropagationEngine(world.topology, world.policies)
        engine.ensure_cache_capacity(len(paths_keys))
        if kernels.use_numpy():
            return engine.paths_to_many(paths_keys, world.vantage_points)
        return [
            engine.paths_to(origin, world.vantage_points, rc)
            for origin, rc in paths_keys
        ]

    cases = {
        "rov_classify": bench_rov,
        "irr_classify": bench_irr,
        "timeline_saturation": bench_saturation,
        "ihr_pipeline": bench_ihr,
        "propagation_paths": bench_propagation,
    }
    previous = os.environ.get("REPRO_KERNELS")
    results: dict[str, dict] = {}
    try:
        for name, fn in cases.items():
            per_mode: dict[str, dict] = {}
            outputs: dict[str, object] = {}
            for mode in ("python", "numpy"):
                os.environ["REPRO_KERNELS"] = mode
                samples: list[float] = []
                for _ in range(rounds):
                    start = time.perf_counter()
                    outputs[mode] = fn()
                    samples.append(time.perf_counter() - start)
                per_mode[mode] = summarize(samples)
            results[name] = {
                **per_mode,
                "speedup": per_mode["python"]["mean"]
                / per_mode["numpy"]["mean"],
                "equal": outputs["python"] == outputs["numpy"],
            }
            print(
                f"kernel {name}: python={per_mode['python']['mean']:.3f}s "
                f"numpy={per_mode['numpy']['mean']:.3f}s "
                f"({results[name]['speedup']:.2f}x, "
                f"equal={results[name]['equal']})",
                file=sys.stderr,
            )
    finally:
        if previous is None:
            os.environ.pop("REPRO_KERNELS", None)
        else:
            os.environ["REPRO_KERNELS"] = previous
    return results


def run_scale_point(
    scale: float,
    seed: int,
    jobs: int | None,
    shards: int | None,
    mode: str,
    store_dir: Path,
) -> int:
    """One measured point of the scale sweep, inside this process.

    Invoked by :func:`run_scale_sweep` as a subprocess so ``ru_maxrss``
    reflects exactly one scale and one load strategy.  Emits a single
    JSON line on stdout.
    """
    from repro.datasets.checkpoint import CheckpointStore, world_digest
    from repro.scenario.config import ScenarioConfig

    store = CheckpointStore(store_dir)
    stage_rss: dict[str, float] | None = None
    spill: dict[str, float] | None = None
    budget_env = os.environ.get("REPRO_BUILD_BUDGET_MB")
    if mode == "cold":
        # Stamp every span close with the high-water RSS so the point
        # reports per-stage peaks, not just the whole-process number.
        os.environ["REPRO_SPAN_RSS"] = "1"
        start = time.perf_counter()
        world = build_world(scale=scale, seed=seed, jobs=jobs, shards=shards)
        seconds = time.perf_counter() - start
        rss_stage = peak_rss_mb()
        start = time.perf_counter()
        store.save(world)
        save_seconds = time.perf_counter() - start
        os.environ.pop("REPRO_SPAN_RSS", None)
        counters = obs.counters()
        spill = {
            name: counters[name]
            for name in (
                "build.spill.blocks",
                "build.spill.bytes",
                "build.spill.files",
                "hegemony.partitions",
            )
            if name in counters
        }
        stage_rss = {}
        for root in obs.root_spans():
            for node in _walk_spans(root):
                rss = node.attrs.get("rss_mb")
                if rss is not None and (
                    node.name.startswith("build.")
                    or node.name == "checkpoint.save"
                ):
                    # High-water RSS is monotone; the last close wins.
                    stage_rss[node.name] = rss
    else:
        load_mode = "columnar" if mode == "warm-lazy" else "eager"
        start = time.perf_counter()
        world = store.load(ScenarioConfig(), scale, seed, mode=load_mode)
        seconds = time.perf_counter() - start
        rss_stage = peak_rss_mb()
        save_seconds = None
        if world is None:
            print(f"scale point: no checkpoint in {store_dir}", file=sys.stderr)
            return 1
    start = time.perf_counter()
    digest = world_digest(world)
    digest_seconds = time.perf_counter() - start
    point = {
        "mode": mode,
        "scale": scale,
        "seed": seed,
        "shards": shards,
        "seconds": seconds,
        "digest_seconds": digest_seconds,
        # RSS right after the stage (build or load) vs after the digest
        # walked every field — the gap is what laziness saves.
        "peak_rss_mb_stage": rss_stage,
        "peak_rss_mb": peak_rss_mb(),
        "world_digest": digest,
    }
    if save_seconds is not None:
        point["save_seconds"] = save_seconds
    if stage_rss:
        # Per-stage high-water RSS at each build span's close: the
        # increase between consecutive stages attributes peak growth.
        point["peak_rss_mb_stages"] = stage_rss
    if mode == "cold" and budget_env is not None:
        point["build_budget_mb"] = float(budget_env)
    if spill:
        point["spill"] = spill
    print(json.dumps(point))
    return 0


def _walk_spans(root):
    yield root
    for child in root.children:
        yield from _walk_spans(child)


def run_scale_sweep(
    scales: list[float],
    seed: int,
    jobs: int | None,
    shards: int | None,
    build_budget_mb: float | None = None,
) -> list[dict]:
    """Cold build vs warm mmap/eager load, one fresh subprocess each.

    Returns one row per scale: wall time and peak RSS for the cold
    sharded build, the memory-mapped columnar load, and the eager load,
    plus a three-way digest-equality verdict.  ``build_budget_mb`` caps
    the cold leg's buffered build columns (``REPRO_BUILD_BUDGET_MB``),
    so the sweep exercises — and its digest verdict covers — the
    spill-to-disk out-of-core build path.
    """
    import tempfile

    rows: list[dict] = []
    with tempfile.TemporaryDirectory(prefix="repro-bench-scale-") as tmp:
        for scale in scales:
            store_dir = Path(tmp) / f"scale-{scale}"
            points: dict[str, dict] = {}
            for mode in ("cold", "warm-lazy", "warm-eager"):
                cmd = [
                    sys.executable,
                    str(Path(__file__).resolve()),
                    "--scale-point", str(scale),
                    "--point-mode", mode,
                    "--store", str(store_dir),
                    "--seed", str(seed),
                ]
                if jobs is not None:
                    cmd += ["--jobs", str(jobs)]
                if shards is not None:
                    cmd += ["--shards", str(shards)]
                env = dict(os.environ)
                env.pop("REPRO_BUILD_BUDGET_MB", None)
                if mode == "cold" and build_budget_mb is not None:
                    env["REPRO_BUILD_BUDGET_MB"] = str(build_budget_mb)
                proc = subprocess.run(
                    cmd, capture_output=True, text=True, env=env
                )
                if proc.returncode != 0:
                    raise RuntimeError(
                        f"scale point {scale}/{mode} failed:\n{proc.stderr}"
                    )
                points[mode] = json.loads(
                    proc.stdout.strip().splitlines()[-1]
                )
            digests = {p["world_digest"] for p in points.values()}
            row = {
                "scale": scale,
                "seed": seed,
                "shards": shards,
                "world_digest": points["cold"]["world_digest"],
                "digest_equal": len(digests) == 1,
                "cold": points["cold"],
                "warm_lazy": points["warm-lazy"],
                "warm_eager": points["warm-eager"],
            }
            rows.append(row)
            print(
                f"scale {scale}: cold={row['cold']['seconds']:.2f}s "
                f"({row['cold']['peak_rss_mb']:.0f}MB) "
                f"lazy={row['warm_lazy']['seconds']:.3f}s "
                f"({row['warm_lazy']['peak_rss_mb_stage']:.0f}MB at load) "
                f"eager={row['warm_eager']['seconds']:.3f}s "
                f"({row['warm_eager']['peak_rss_mb']:.0f}MB) "
                f"digest_equal={row['digest_equal']}",
                file=sys.stderr,
            )
    return rows


def git_rev() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
        return out.stdout.strip() or "unknown"
    except OSError:
        return "unknown"


def summarize(samples: list[float]) -> dict:
    return {
        "mean": statistics.fmean(samples),
        "stddev": statistics.stdev(samples) if len(samples) > 1 else 0.0,
        "min": min(samples),
        "max": max(samples),
        "rounds": samples,
    }


def run_rounds(
    scale: float,
    seed: int,
    jobs: int | None,
    rounds: int,
    shards: int | None = None,
) -> dict[str, dict]:
    build_samples: list[float] = []
    timeline_samples: list[float] = []
    total_samples: list[float] = []
    for i in range(rounds):
        start = time.perf_counter()
        world = build_world(scale=scale, seed=seed, jobs=jobs, shards=shards)
        build_elapsed = time.perf_counter() - start

        start = time.perf_counter()
        timeline = Timeline(world)
        timeline.saturation_series()
        timeline.growth()
        timeline_elapsed = time.perf_counter() - start

        build_samples.append(build_elapsed)
        timeline_samples.append(timeline_elapsed)
        total_samples.append(build_elapsed + timeline_elapsed)
        print(
            f"round {i + 1}/{rounds}: build={build_elapsed:.3f}s "
            f"timeline={timeline_elapsed:.3f}s",
            file=sys.stderr,
        )
        del world, timeline
    return {
        "build_world_to_ihr": summarize(build_samples),
        "timeline_annual_series": summarize(timeline_samples),
        "end_to_end": summarize(total_samples),
    }


def run_experiments(
    scale: float, seed: int, jobs: int | None
) -> dict[str, dict]:
    """Time every registry experiment once on one freshly built world.

    Iterates :data:`repro.experiments.registry.REGISTRY` so newly added
    paper artefacts are benchmarked without touching this file.
    """
    world = build_world(scale=scale, seed=seed, jobs=jobs)
    results: dict[str, dict] = {}
    for spec in REGISTRY.values():
        with obs.span(f"bench.experiment.{spec.name}"):
            start = time.perf_counter()
            spec.run(world)
            elapsed = time.perf_counter() - start
        results[spec.name] = {"seconds": elapsed, "title": spec.title}
        print(f"experiment {spec.name}: {elapsed:.3f}s", file=sys.stderr)
    return results


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", default="local", help="BENCH_<label>.json")
    parser.add_argument("--scale", type=float, default=None)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="shard pool worker processes (default: REPRO_JOBS env)",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=None,
        help="column shards for the build stages (default: REPRO_SHARDS env)",
    )
    parser.add_argument(
        "--scale-sweep",
        type=float,
        nargs="+",
        default=None,
        metavar="SCALE",
        help="also measure these scales (cold/lazy/eager, fresh subprocess "
        "each) and record the rows under scale_sweep",
    )
    parser.add_argument(
        "--compare",
        type=Path,
        default=None,
        metavar="BASELINE.json",
        help="after the run, exit 3 on >threshold regression or digest "
        "drift versus this committed baseline payload",
    )
    parser.add_argument(
        "--compare-threshold",
        type=float,
        default=0.25,
        help="fractional slowdown tolerated by --compare (default: 0.25)",
    )
    parser.add_argument(
        "--compare-mode",
        choices=("all", "digests"),
        default="all",
        help="'all' exits 3 on timing regressions and digest drift alike; "
        "'digests' prints timing regressions as warnings and exits 3 on "
        "digest drift only (the CI setting)",
    )
    parser.add_argument(
        "--sweep-jobs",
        type=int,
        default=None,
        help="worker processes for the --scale-sweep legs only "
        "(default: --jobs); lets serial round timings coexist with a "
        "sharded sweep on few-core hosts",
    )
    parser.add_argument(
        "--sweep-shards",
        type=int,
        default=None,
        help="column shards for the --scale-sweep legs only "
        "(default: --shards)",
    )
    parser.add_argument(
        "--build-budget-mb",
        type=float,
        default=None,
        metavar="MB",
        help="REPRO_BUILD_BUDGET_MB for the cold legs of --scale-sweep: "
        "sharded build stages spill column blocks to scratch files past "
        "this byte budget (default: unset, all in memory)",
    )
    # Internal: one subprocess-measured point of --scale-sweep.
    parser.add_argument("--scale-point", type=float, help=argparse.SUPPRESS)
    parser.add_argument(
        "--point-mode",
        choices=("cold", "warm-lazy", "warm-eager"),
        help=argparse.SUPPRESS,
    )
    parser.add_argument("--store", type=Path, help=argparse.SUPPRESS)
    parser.add_argument(
        "--experiments",
        action="store_true",
        help="also time every registry experiment on one built world",
    )
    parser.add_argument(
        "--kernels",
        action="store_true",
        help="also microbenchmark each columnar kernel (python vs numpy)",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="one round at scale 0.3; exit 1 if end-to-end exceeds --budget",
    )
    parser.add_argument(
        "--budget",
        type=float,
        default=120.0,
        help="smoke-mode time budget in seconds (generous by design)",
    )
    parser.add_argument(
        "--sweep",
        action="store_true",
        help="also benchmark repro.sweep throughput at 1 vs N workers",
    )
    parser.add_argument(
        "--sweep-scale",
        type=float,
        default=0.2,
        help="world scale for the sweep benchmark grid (default: 0.2)",
    )
    parser.add_argument(
        "--sweep-workers",
        type=int,
        default=4,
        help="worker count for the parallel sweep phase (default: 4)",
    )
    parser.add_argument(
        "--serve",
        action="store_true",
        help="also benchmark the measurement service (QPS, percentiles)",
    )
    parser.add_argument(
        "--serve-scale",
        type=float,
        default=0.05,
        help="world scale for the serve benchmark (default: 0.05)",
    )
    parser.add_argument(
        "--serve-requests",
        type=int,
        default=200,
        help="hot-cache requests per serve phase (default: 200)",
    )
    parser.add_argument(
        "--delta",
        action="store_true",
        help="also benchmark per-event incremental apply vs cold rebuild",
    )
    parser.add_argument(
        "--delta-scale",
        type=float,
        default=0.12,
        help="world scale for the delta benchmark (default: 0.12)",
    )
    parser.add_argument(
        "--delta-events",
        type=int,
        default=60,
        help="synthetic events in the delta benchmark stream (default: 60)",
    )
    parser.add_argument(
        "--delta-event-seed",
        type=int,
        default=0,
        help="RNG seed for the delta benchmark event stream (default: 0)",
    )
    parser.add_argument(
        "--no-warm-start",
        action="store_true",
        help="skip the checkpoint cold-vs-warm comparison",
    )
    parser.add_argument(
        "--output-dir", type=Path, default=REPO_ROOT, help="where to write JSON"
    )
    args = parser.parse_args(argv)

    if args.scale_point is not None:
        if args.point_mode is None or args.store is None:
            parser.error("--scale-point requires --point-mode and --store")
        return run_scale_point(
            args.scale_point,
            args.seed,
            args.jobs,
            args.shards,
            args.point_mode,
            args.store,
        )

    rounds = 1 if args.smoke else args.rounds
    scale = args.scale if args.scale is not None else (0.3 if args.smoke else 1.0)

    obs.reset()
    # The sweep benchmark forks worker processes, so it runs first —
    # before the full-scale builds inflate this process's RSS and make
    # every fork (and its copy-on-write faults) needlessly expensive.
    sweep = (
        run_sweep_bench(args.sweep_scale, max(2, args.sweep_workers))
        if args.sweep
        else None
    )
    # The serve bench spawns its own worker processes (fresh
    # interpreters, so this process's RSS never contaminates them).
    serve = (
        run_serve_bench(args.serve_scale, args.serve_requests)
        if args.serve
        else None
    )
    # Scale-sweep points run in fresh subprocesses, so ordering versus
    # the in-process phases does not contaminate their RSS readings.
    scale_sweep = (
        run_scale_sweep(
            args.scale_sweep,
            args.seed,
            args.sweep_jobs if args.sweep_jobs is not None else args.jobs,
            args.sweep_shards
            if args.sweep_shards is not None
            else args.shards,
            build_budget_mb=args.build_budget_mb,
        )
        if args.scale_sweep
        else None
    )
    benchmarks = run_rounds(scale, args.seed, args.jobs, rounds, args.shards)
    warm_start = None if args.no_warm_start else run_warm_start(
        scale, args.seed, args.jobs, args.shards
    )
    experiments = (
        run_experiments(scale, args.seed, args.jobs)
        if args.experiments
        else None
    )
    kernel_benchmarks = (
        run_kernels(scale, args.seed, args.jobs, rounds)
        if args.kernels
        else None
    )
    delta = (
        run_delta_bench(
            args.delta_scale,
            args.seed,
            args.delta_events,
            args.delta_event_seed,
        )
        if args.delta
        else None
    )
    payload = {
        "label": args.label,
        "scale": scale,
        "seed": args.seed,
        "jobs": args.jobs,
        "shards": args.shards,
        "rounds": rounds,
        "git_rev": git_rev(),
        "python": platform.python_version(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "peak_rss_mb": peak_rss_mb(),
        "benchmarks": benchmarks,
        # Spans are omitted: BENCH files track the flat per-stage
        # timings and process counters, not every round's trace tree.
        "obs": obs.snapshot(spans=False),
    }
    if warm_start is not None:
        payload["warm_start"] = warm_start
    if scale_sweep is not None:
        payload["scale_sweep"] = scale_sweep
    if experiments is not None:
        payload["experiments"] = experiments
    if kernel_benchmarks is not None:
        payload["kernels"] = kernel_benchmarks
    if sweep is not None:
        payload["sweep"] = sweep
    if delta is not None:
        payload["delta"] = delta
    if serve is not None:
        payload["serve"] = serve
    out_path = args.output_dir / f"BENCH_{args.label}.json"
    out_path.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {out_path}", file=sys.stderr)

    mean = benchmarks["end_to_end"]["mean"]
    print(f"end-to-end mean: {mean:.3f}s over {rounds} round(s)")
    if args.smoke and mean > args.budget:
        print(
            f"SMOKE FAIL: {mean:.3f}s exceeds the {args.budget:.0f}s budget",
            file=sys.stderr,
        )
        return 1
    if args.compare is not None:
        baseline = json.loads(args.compare.read_text())
        digest_problems, timing_problems = split_compare_problems(
            payload, baseline, args.compare_threshold
        )
        blocking = digest_problems
        if args.compare_mode == "all":
            blocking = digest_problems + timing_problems
        elif timing_problems:
            for problem in timing_problems:
                print(f"COMPARE WARN: {problem}", file=sys.stderr)
        if blocking:
            for problem in blocking:
                print(f"COMPARE FAIL: {problem}", file=sys.stderr)
            return 3
        clean = (
            "no digest drift"
            if args.compare_mode == "digests"
            else "no regression"
        )
        print(
            f"compare: {clean} versus {args.compare} "
            f"(threshold {args.compare_threshold:.0%})",
            file=sys.stderr,
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
