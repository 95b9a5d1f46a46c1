"""The four workloads.

Each workload function takes the workload seed, the run length and whether this is
the traced run, drives the program only through its public functions,
and returns an :class:`~common.Outcome`.  The world seed, the event
stream and the request sequence are all derived from the workload seed;
the program sees only those generated inputs.  A run makes a fixed
number of identical passes (see ``Outcome`` for why).

Untraced runs time the program as shipped.  Traced runs additionally
wrap each public call in a ``bench.*`` span of :mod:`repro.obs` (the
program's own spans then nest beneath it) and read per-layer numbers
back from the span tree, which is reset before every pass.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import os
import random
import shutil
import subprocess
import sys
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

from common import (
    COLUMNAR_FIELDS,
    DELTA_DOMAINS,
    Outcome,
    TreePss,
    build_layers,
    children_peak_rss_mb,
    median,
    peak_rss_mb,
    pass_count,
    percentile,
    reset_peak_rss,
    span_totals,
)

from repro import obs
from repro.config import RuntimeConfig
from repro.datasets.checkpoint import CheckpointStore, world_digest
from repro.delta import EVENT_KINDS, LiveWorld, cold_rebuild, synthesize_events
from repro.experiments.registry import REGISTRY
from repro.scenario.build import build_world
from repro.scenario.timeline import Timeline

#: World sizes, chosen so that one pass of every workload takes about
#: ``common.PASS_SECONDS`` and all runs fit the benchmark's time budget
#: (NOTES.md).
REPRODUCE_SCALE = 0.1
SHARDED_SCALE = 0.3
SERVE_SCALE = 0.05
DELTA_SCALE = 0.07
DELTA_EVENTS = 150
SHARDED = dict(shards=2, jobs=2)
#: A spill budget small enough that the sharded build spills at
#: ``SHARDED_SCALE`` (64 MB never spills, even at scale 1.0).
SHARDED_BUDGET_MB = 2
SERIAL = dict(shards=1, jobs=1)
#: Experiments run on the live world at each mark of ``delta-replay``.
MARK_EXPERIMENTS = ("fig5", "fig7", "fig8", "f70", "f83", "tab2")
#: ``at=`` instants asked of the server, and the experiments asked there.
AT_DATES = ("2021-07-01", "2022-01-01")
AT_EXPERIMENTS = ("fig5", "fig7", "tab2")
SERVE_CONNECTIONS = 2
#: One build worker: each worker materialises its own lazy copy of the
#: world, so with two the total work depends on which worker happens to
#: take which key (the warm-up time spread 50% across seeds).
SERVE_WORKERS = 1
#: Seconds of all-hit traffic after the server has answered every key,
#: whose median hit latency gives ``ops_per_s``.
HIT_STRETCH_S = 2.5
#: Set-up is repeated this often per run and its median reported.
SETUP_REPEATS = 3
#: Share of each event kind in the stream, in ``EVENT_KINDS`` order.  This
#: is the program's own mix, the weights ``synthesize_events`` draws kinds
#: with (``repro.delta.trace._WEIGHTED_KINDS``); the smoke test fails if
#: the two part.
EVENT_SHARES = (0.22, 0.18, 0.18, 0.12, 0.10, 0.06, 0.10, 0.04)


class Context:
    """Where a run may write, and whether it traces."""

    def __init__(self, workdir: Path, src: Path, trace: bool):
        self.workdir = workdir
        self.src = src
        self.trace = trace

    def span(self, name: str):
        return obs.span(name) if self.trace else nullcontext()


def _import_program(ctx: Context, out: Outcome) -> None:
    """Set-up of the in-process workloads: a fresh interpreter importing
    the program, timed ``SETUP_REPEATS`` times."""
    env = dict(os.environ, PYTHONPATH=str(ctx.src))
    for _ in range(SETUP_REPEATS):
        with out.setup():
            subprocess.run(
                [sys.executable, "-c", "import repro.cli, repro.experiments.registry"],
                env=env,
                check=True,
            )


def _run_experiment(ctx: Context, out: Outcome, step: str, name: str, world, timings: dict):
    """One registry experiment as one op; failures are counted, not raised."""
    spec = REGISTRY[name]
    out.attempted += 1
    start = time.perf_counter()
    with out.step(step):
        try:
            with ctx.span(f"bench.experiment.{name}"):
                spec.render(spec.run(world))
        except Exception as error:  # noqa: BLE001 - every failure is counted
            out.fail(error)
    timings.setdefault(name, []).append(time.perf_counter() - start)


@contextmanager
def _timed_pass(out: Outcome):
    """One pass: fresh trace, fresh high-water RSS, its own step table."""
    with out.measured_pass():
        obs.reset()
        reset_peak_rss()
        yield
        out.peak_rss_mb = max(out.peak_rss_mb, peak_rss_mb())


def _entry_bytes(entry: Path) -> int:
    return sum(path.stat().st_size for path in entry.rglob("*") if path.is_file())


# -- reproduce-cold ----------------------------------------------------------


def reproduce_cold(ctx: Context, seed: int, seconds: float, scale: float = REPRODUCE_SCALE):
    out = Outcome()
    _import_program(ctx, out)
    runtime = RuntimeConfig.resolve(**SERIAL)
    timings: dict[str, list[float]] = {}
    layers: list[dict[str, float]] = []
    out.ops_per_pass = len(REGISTRY)
    out.op_steps = "experiment "
    for index in range(pass_count(seconds)):
        store = CheckpointStore(ctx.workdir / f"store-{index}")
        with _timed_pass(out):
            with out.step("build"), ctx.span("bench.build"):
                world = build_world(scale=scale, seed=seed, runtime=runtime)
            build_counters = obs.counters()
            with out.step("timeline"), ctx.span("bench.timeline"):
                timeline = Timeline(world)
                timeline.growth()
                timeline.members_by_rir_series()
                timeline.routed_share_series()
                timeline.saturation_series()
            for name in REGISTRY:
                _run_experiment(ctx, out, f"experiment {name}", name, world, timings)
            with out.step("digest_cold"), ctx.span("bench.checkpoint.digest_cold"):
                cold = world_digest(world)
            with out.step("save"), ctx.span("bench.checkpoint.save"):
                entry = store.save(world)
            with out.step("load"), ctx.span("bench.checkpoint.load"):
                warm = store.load(world.config, scale, seed)
            loaded = obs.counters()
            with out.step("digest_warm"), ctx.span("bench.checkpoint.digest_warm"):
                warm_digest = world_digest(warm)
        out.checks[f"pass {index}: warm digest == cold digest"] = warm_digest == cold
        if ctx.trace:
            roots = obs.root_spans()
            own, inclusive = span_totals(roots)
            layer = build_layers(
                [node for node in roots if node.name == "bench.build"], build_counters
            )
            layer["timeline.rov_at_s"] = own.get("timeline.rov_at", 0.0)
            layer["timeline.saturation_series_s"] = own.get("timeline.saturation_series", 0.0)
            for step in ("digest_cold", "save", "load", "digest_warm"):
                layer[f"checkpoint.{step}_s"] = inclusive[f"bench.checkpoint.{step}"]
            layer["checkpoint.save_bytes"] = _entry_bytes(entry)
            for field in COLUMNAR_FIELDS:
                layer[f"columnar.materialize.{field}_s"] = own.get(
                    f"columnar.materialize.{field}", 0.0
                )
            layer["columnar.fields_materialized_by_digest"] = sum(
                1
                for name, value in obs.counters().items()
                if name.startswith("columnar.materialized.") and value > loaded.get(name, 0)
            )
            layers.append(layer)
        shutil.rmtree(store.root)
        del world, warm, timeline
    out.layers = _median_layers(layers)
    out.layers.update(_experiment_layers(timings))
    return out


# -- build-sharded -----------------------------------------------------------


def build_sharded(
    ctx: Context,
    seed: int,
    seconds: float,
    scale: float = SHARDED_SCALE,
    budget_mb: int = SHARDED_BUDGET_MB,
):
    out = Outcome()
    _import_program(ctx, out)
    runtime = RuntimeConfig.resolve(**SHARDED, build_budget_mb=budget_mb)
    digests = []
    layers: list[dict[str, float]] = []
    out.ops_per_pass = 1
    out.op_steps = "build"
    sharded = True
    for _ in range(pass_count(seconds)):
        out.attempted += 1
        # The pool workers do most of the work, so the pass's memory is
        # the summed PSS of this process and its workers, sampled, and
        # never less than this process's own exact high-water mark.
        with TreePss() as tree, _timed_pass(out):
            with out.step("build"), ctx.span("bench.build"):
                world = build_world(scale=scale, seed=seed, runtime=runtime)
            build_counters = obs.counters()
            with out.step("digest"), ctx.span("bench.checkpoint.digest_cold"):
                digests.append(world_digest(world))
        out.peak_rss_mb = max(out.peak_rss_mb, tree.peak_mb)
        # A build that could not start its pool, or did not spill, ran
        # the serial or in-memory path, and would pass the digest check
        # while measuring something else.
        sharded = sharded and (
            build_counters.get("shard.pool_maps", 0) > 0
            and build_counters.get("shard.pool_unavailable", 0) == 0
            and build_counters.get("build.spill.blocks", 0) > 0
        )
        if ctx.trace:
            build_wall, build_cpu = out.passes[-1]["build"]
            roots = obs.root_spans()
            layer = build_layers(roots, build_counters)
            # CPU over wall of the whole sharded build call: the stages
            # inside it cannot be told apart from outside the program.
            layer["shard.cpu_over_wall"] = build_cpu / build_wall
            layer["shard.worker_peak_rss_mb"] = children_peak_rss_mb()
            layer["checkpoint.digest_cold_s"] = span_totals(roots)[1]["bench.checkpoint.digest_cold"]
            layers.append(layer)
        del world
    out.layers = _median_layers(layers)
    out.checks["every build ran on the shard pool and spilled"] = sharded
    serial = build_world(scale=scale, seed=seed, runtime=RuntimeConfig.resolve(**SERIAL))
    reference = world_digest(serial)
    out.checks["sharded digest == single-shard digest"] = all(
        digest == reference for digest in digests
    )
    return out


# -- serve-warm --------------------------------------------------------------


def serve_keys(scale: float, seed: int) -> list[str]:
    """Every experiment on the base world, plus ``at=`` for a few."""
    base = f"scale={scale}&seed={seed}"
    keys = [f"/experiments/{name}?{base}" for name in REGISTRY]
    keys += [
        f"/experiments/{name}?{base}&at={at}" for at in AT_DATES for name in AT_EXPERIMENTS
    ]
    return keys


def serve_warm(ctx: Context, seed: int, seconds: float, scale: float = SERVE_SCALE):
    from serveload import Server, closed_loop, fetch

    out = Outcome()
    runtime = RuntimeConfig.resolve(**SERIAL)
    keys = serve_keys(scale, seed)
    log_path = ctx.workdir / "server.log"
    loads, counters, start_s = [], {}, []
    server = None
    try:
        for attempt in range(SETUP_REPEATS):
            if server is not None:
                server.stop()
                server = None
            obs.reset()
            store = ctx.workdir / f"serve-store-{attempt}"
            with out.setup():
                with ctx.span("bench.build"):
                    world = build_world(scale=scale, seed=seed, runtime=runtime)
                CheckpointStore(store).save(world)
                server = Server(store, SERVE_WORKERS, log_path, ctx.src)
            if ctx.trace and attempt == 0:
                out.layers.update(build_layers(obs.root_spans(), obs.counters()))
        for index in range(pass_count(seconds)):
            if index:
                # Every pass starts from an empty result cache.
                server.stop()
                server = None
                shutil.rmtree(store / "results", ignore_errors=True)
                start = time.perf_counter()
                server = Server(store, SERVE_WORKERS, log_path, ctx.src)
                start_s.append(time.perf_counter() - start)
            with out.measured_pass():
                load = asyncio.run(
                    closed_loop(server, keys, seed, HIT_STRETCH_S, SERVE_CONNECTIONS)
                )
            loads.append(load)
            # Warming the service (every key answered once) is where the
            # build work happens: its steps are the first answer of each
            # key, with the build worker's CPU over the warm-up as one more
            # (the server's own CPU meanwhile serves the concurrent hits).
            # The all-hit stretch after it gives the request rates.
            steps = {key: (0.0, 0.0) for key in keys}
            for kind, key, latency, _ in load.records:
                if kind == "miss" and steps[key][0] == 0.0:
                    steps[key] = (latency, 0.0)
            steps["worker CPU while warming"] = (0.0, load.warm_cpu_s)
            out.passes[-1].update(steps)
            # The rate the closed loop sustains at its median hit latency.
            # The measured request rate moved by up to a factor of two
            # between passes of one run: a stall of the host holds up
            # every connection at once, and the mean latency, which sets
            # that rate, takes all of it, where the median takes none.
            out.rates.append(SERVE_CONNECTIONS / load.stretch_hit_p50_s)
            out.peak_rss_mb = max(out.peak_rss_mb, load.peak_rss_mb)
            status, body = asyncio.run(fetch(server, "/metrics"))
            counters = json.loads(body)["metrics"]["counters"] if status == 200 else {}
    finally:
        if server is not None:
            server.stop()

    by_kind: dict[str, list[float]] = {"hit": [], "miss": [], "meta": []}
    base_miss, at_miss, first_miss, growth = [], [], [], []
    for load in loads:
        for kind, key, latency, code in load.records:
            out.attempted += 1
            if code != 200:
                out.fail(RuntimeError(f"HTTP {code}"))
            by_kind[kind].append(latency * 1000.0)
            if kind == "miss":
                (at_miss if "&at=" in key else base_miss).append(latency * 1000.0)
        first_miss.append(next(lat for kind, _, lat, _ in load.records if kind == "miss"))
        after_warm = len(load.records) - load.requests_warm
        growth.append((load.rss_end_kb - load.rss_warm_kb) / (after_warm / 1000.0))
    out.layers.update(
        {
            "serve.start_s": median(start_s),
            "serve.hit_p50_ms": percentile(by_kind["hit"], 50),
            "serve.hit_p99_ms": percentile(by_kind["hit"], 99),
            "serve.hit_samples": len(by_kind["hit"]),
            "serve.miss_p50_ms": percentile(by_kind["miss"], 50),
            "serve.miss_samples": len(by_kind["miss"]),
            "serve.base_miss_p50_ms": percentile(base_miss, 50),
            "serve.at_miss_p50_ms": percentile(at_miss, 50),
            "serve.meta_p50_ms": percentile(by_kind["meta"], 50),
            "serve.first_miss_ms": 1000.0 * median(first_miss),
            "serve.hits": counters.get("serve.hits", 0),
            "serve.misses": counters.get("serve.misses", 0),
            "serve.rejected": counters.get("serve.rejected", 0),
            "serve.rss_growth_kb_per_1k_req": median(growth),
        }
    )

    first = loads[0].first_answers
    out.checks["every hit equals the first answer for its key (body and ETag)"] = all(
        load.mismatched_hits == 0 for load in loads
    )
    out.checks["every pass serves the same bodies"] = all(
        {key: body for key, (body, _) in load.first_answers.items()}
        == {key: body for key, (body, _) in first.items()}
        for load in loads
    )
    served = {}
    for key, (body, _) in first.items():
        if "&at=" not in key:
            payload = json.loads(body)
            served[payload["experiment"]] = payload["result"]["sha256"]
    expected = {
        name: hashlib.sha256(spec.render(spec.run(world)).encode()).hexdigest()
        for name, spec in REGISTRY.items()
    }
    out.checks["served base payloads == in-process run+render"] = served == expected
    return out


# -- delta-replay ------------------------------------------------------------


def event_kinds(seed: int, n: int) -> list[str]:
    """A seeded order of a fixed kind mix covering all eight kinds.

    The counts per kind are fixed rather than drawn, because event costs
    differ by three orders of magnitude across kinds; a drawn mix would
    make the run's cost depend on the seed's luck.
    """
    kinds = [
        kind
        for kind, share in zip(EVENT_KINDS, EVENT_SHARES)
        for _ in range(max(1, round(share * n)))
    ]
    random.Random(seed).shuffle(kinds)
    return kinds


def delta_replay(
    ctx: Context,
    seed: int,
    seconds: float,
    scale: float = DELTA_SCALE,
    n_events: int = DELTA_EVENTS,
):
    out = Outcome()
    runtime = RuntimeConfig.resolve(**SERIAL)
    for attempt in range(SETUP_REPEATS):
        obs.reset()
        with out.setup():
            with ctx.span("bench.build"):
                world = build_world(scale=scale, seed=seed, runtime=runtime)
            events = synthesize_events(world, kinds=event_kinds(seed, n_events), seed=seed)
        if ctx.trace and attempt == 0:
            out.layers.update(build_layers(obs.root_spans(), obs.counters()))
    marks = {len(events) // 2, len(events)}
    out.ops_per_pass = len(events)
    out.op_steps = "event "
    timings: dict[str, list[float]] = {}
    init_s, world_s, events_ms = [], [], []
    by_domain: dict[str, list[float]] = {domain: [] for domain in DELTA_DOMAINS}
    replayed = []
    for index in range(pass_count(seconds)):
        if index:
            # A live world warms its base world's memos; every pass
            # starts from a fresh one, built outside the timed pass.
            world = build_world(scale=scale, seed=seed, runtime=runtime)
        with _timed_pass(out):
            with out.step("init"), ctx.span("bench.delta.init"):
                live = LiveWorld(world)
            init_s.append(out.passes[-1]["init"][0])
            for position, event in enumerate(events, start=1):
                out.attempted += 1
                with out.step(f"event {position}"):
                    try:
                        with ctx.span("bench.delta.apply"):
                            domain = live.apply(event)
                    except Exception as error:  # noqa: BLE001 - every failure is counted
                        out.fail(error)
                        domain = None
                latency_ms = 1000.0 * out.passes[-1][f"event {position}"][0]
                events_ms.append(latency_ms)
                if domain is not None:
                    by_domain[domain].append(latency_ms)
                if position in marks:
                    with out.step(f"world {position}"), ctx.span("bench.delta.world"):
                        current = live.world()
                    world_s.append(out.passes[-1][f"world {position}"][0])
                    for name in MARK_EXPERIMENTS:
                        step = f"{name} at {position}"
                        _run_experiment(ctx, out, step, name, current, timings)
            with out.step("digest"):
                replayed.append(world_digest(current))
        del live, current
    passes = len(out.passes)
    out.layers.update(
        {
            "delta.init_s": median(init_s),
            "delta.world_s": median(world_s),
            "delta.event_p50_ms": percentile(events_ms, 50),
            "delta.event_p90_ms": percentile(events_ms, 90),
            "delta.event_samples": len(events_ms),
        }
    )
    for domain, latencies in by_domain.items():
        out.layers[f"delta.apply.{domain}_p50_ms"] = percentile(latencies, 50)
        out.layers[f"delta.events.{domain}"] = len(latencies) / passes
    out.layers.update(_experiment_layers(timings))
    rebuilt = world_digest(cold_rebuild(world, events))
    out.checks["replay digest == cold rebuild digest"] = all(
        digest == rebuilt for digest in replayed
    )
    return out


# -- helpers -----------------------------------------------------------------


def _median_layers(passes: list[dict[str, float]]) -> dict[str, float]:
    """Each per-layer number's median over the passes, except the per-stage
    high-water RSS, read from the first pass only.

    The program stamps that RSS from ``getrusage``'s ``ru_maxrss``, which
    no reset lowers once any thread has exited (the pool's manager thread
    does, every pass), so later passes would read at least the first
    pass's peak.
    """
    if not passes:
        return {}
    return {
        name: passes[0][name]
        if name.endswith("_rss_mb")
        else median([layer[name] for layer in passes])
        for name in passes[0]
    }


def _experiment_layers(timings: dict[str, list[float]]) -> dict[str, float]:
    return {f"experiment.{name}_s": median(values) for name, values in timings.items()}


WORKLOADS = {
    "reproduce-cold": reproduce_cold,
    "build-sharded": build_sharded,
    "serve-warm": serve_warm,
    "delta-replay": delta_replay,
}
