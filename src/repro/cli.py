"""Command-line interface: ``python -m repro <command>``.

Commands::

    report     build a world and print the ecosystem report
    reproduce  print paper tables/figures (all, or --only fig5,tab2)
    export     write all datasets of a world to a directory
    audit      list unconformant member organisations
    hijack     run one hijack simulation and report capture
    ready      check whether an AS meets the MANRS requirements
    cache      manage the checkpoint store (list, verify, prune, warm)
    sweep      orchestrate job grids (run, resume, status, report, list)
    serve      run the measurement service (async HTTP query API)
    replay     replay a synthetic event stream through the live world and
               verify each checkpoint digest-equals a cold rebuild

``repro reproduce --list`` and ``repro sweep list`` print the
experiment registry table (name, title, paper ref) without building a
world.  ``repro sweep run SPEC.json`` expands a declarative grid into
jobs, runs them across worker processes with retry/timeout/crash
isolation, and records everything in a persistent ledger under
``<cache dir>/sweeps/<sweep id>``; ``sweep resume`` re-runs only the
jobs without a verified result (see the README's "Sweeps" section).

All commands accept ``--scale`` and ``--seed`` — before or after the
subcommand — and worlds are deterministic per pair.  Every command also
accepts ``--trace-json PATH`` to dump the structured observability
snapshot (span tree + metrics; see :mod:`repro.obs`) after the run, and
``report``/``audit``/``ready`` take ``--json`` for machine-readable
output.

``--cache-dir PATH`` (or the ``REPRO_CACHE_DIR`` environment variable)
enables the content-addressed checkpoint store: world-building commands
warm-start from a stored entry when one exists for (config, scale,
seed), and save a cold build back for the next run.  Corrupt or stale
entries are discarded with a warning and rebuilt — using the cache never
changes results, only build time.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from repro import obs
from repro.core.report import build_report, render_report, report_as_dict
from repro.datasets.checkpoint import CheckpointStore, default_store
from repro.datasets.store import export_world
from repro.experiments.registry import registry_table, select
from repro.scenario.build import build_world
from repro.scenario.config import ScenarioConfig

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing and docs)."""
    # Shared options are attached twice: on the main parser with real
    # defaults, and on every subparser with SUPPRESS defaults — so
    # ``repro report --scale 0.5`` works exactly like ``repro --scale
    # 0.5 report`` (the subparser only writes the attribute when the
    # flag actually appears after the subcommand).
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--scale", type=float, default=argparse.SUPPRESS,
        help="world size multiplier (1.0 = paper-shaped ~10k ASes)",
    )
    common.add_argument(
        "--seed", type=int, default=argparse.SUPPRESS, help="world seed"
    )
    common.add_argument(
        "--trace-json", metavar="PATH", default=argparse.SUPPRESS,
        help="write the observability snapshot (spans + metrics) to PATH",
    )
    common.add_argument(
        "--cache-dir", metavar="PATH", default=argparse.SUPPRESS,
        help="checkpoint store directory (default: $REPRO_CACHE_DIR)",
    )

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Mind Your MANRS' (IMC 2022)",
    )
    parser.add_argument(
        "--scale", type=float, default=0.2,
        help="world size multiplier (1.0 = paper-shaped ~10k ASes)",
    )
    parser.add_argument("--seed", type=int, default=42, help="world seed")
    parser.add_argument(
        "--trace-json", metavar="PATH", default=None,
        help="write the observability snapshot (spans + metrics) to PATH",
    )
    parser.add_argument(
        "--cache-dir", metavar="PATH", default=None,
        help="checkpoint store directory (default: $REPRO_CACHE_DIR)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    report = sub.add_parser(
        "report", parents=[common], help="print the ecosystem report"
    )
    report.add_argument(
        "--json", action="store_true", help="emit the report as JSON"
    )
    reproduce = sub.add_parser(
        "reproduce", parents=[common],
        help="print paper tables/figures (all by default)",
    )
    reproduce.add_argument(
        "--only", metavar="NAMES", default=None,
        help="comma-separated experiment names (e.g. fig5,tab2)",
    )
    reproduce.add_argument(
        "--list", action="store_true",
        help="print the experiment registry table and exit",
    )
    export = sub.add_parser(
        "export", parents=[common], help="write datasets to a directory"
    )
    export.add_argument("directory", help="output directory")
    audit = sub.add_parser(
        "audit", parents=[common],
        help="list unconformant member organisations",
    )
    audit.add_argument(
        "--json", action="store_true", help="emit the audit as JSON"
    )
    hijack = sub.add_parser(
        "hijack", parents=[common], help="simulate one origin hijack"
    )
    hijack.add_argument(
        "--sub-prefix", action="store_true",
        help="announce a more-specific instead of the exact prefix",
    )
    hijack.add_argument(
        "--protected", action="store_true",
        help="victim has a ROA (hijack becomes RPKI Invalid)",
    )
    ready = sub.add_parser(
        "ready", parents=[common],
        help="check whether an AS meets the MANRS requirements",
    )
    ready.add_argument("asn", type=int, help="AS number to evaluate")
    ready.add_argument(
        "--json", action="store_true", help="emit the readiness check as JSON"
    )
    cache = sub.add_parser(
        "cache", parents=[common], help="manage the checkpoint store"
    )
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)
    cache_sub.add_parser(
        "list", parents=[common], help="list stored checkpoint entries"
    )
    cache_sub.add_parser(
        "verify", parents=[common],
        help="re-hash every entry and report problems",
    )
    prune = cache_sub.add_parser(
        "prune", parents=[common], help="delete stored entries"
    )
    prune.add_argument(
        "--keep", type=int, default=0, metavar="N",
        help="keep the N most recently created entries (default: none)",
    )
    warm = cache_sub.add_parser(
        "warm", parents=[common],
        help="build (or load) the world for --scale/--seed and store it",
    )
    warm.add_argument(
        "--years", action="store_true",
        help="also checkpoint the per-year timeline VRP snapshots",
    )
    sweep = sub.add_parser(
        "sweep", parents=[common],
        help="run job grids with a persistent run ledger",
    )
    sweep_sub = sweep.add_subparsers(dest="sweep_command", required=True)
    for verb, description in (
        ("run", "expand the spec and run every job not already done"),
        ("resume", "re-run only the jobs without a verified result"),
        ("status", "print per-job ledger status for the spec"),
        ("report", "aggregate completed results by experiment"),
    ):
        verb_parser = sweep_sub.add_parser(
            verb, parents=[common], help=description
        )
        verb_parser.add_argument("spec", help="sweep spec JSON file")
        if verb in ("run", "resume"):
            verb_parser.add_argument(
                "--workers", type=int, default=None,
                help="worker processes (default: spec, then REPRO_JOBS)",
            )
            verb_parser.add_argument(
                "--timeout", type=float, default=None,
                help="per-attempt seconds (overrides the spec)",
            )
            verb_parser.add_argument(
                "--max-attempts", type=int, default=None,
                help="attempts per job (overrides the spec)",
            )
    sweep_sub.add_parser(
        "list", parents=[common],
        help="print the experiment registry table",
    )
    serve = sub.add_parser(
        "serve", parents=[common],
        help="run the measurement service (async HTTP query API)",
    )
    serve.add_argument(
        "--host", default="127.0.0.1", help="bind address (default: loopback)"
    )
    serve.add_argument(
        "--port", type=int, default=8351,
        help="bind port (0 = ephemeral; default: 8351)",
    )
    serve.add_argument(
        "--workers", type=int, default=2,
        help="build worker processes (default: 2)",
    )
    serve.add_argument(
        "--queue-limit", type=int, default=None,
        help="pending cold builds before 503 (default: 32)",
    )
    serve.add_argument(
        "--builders", type=int, default=None,
        help="concurrent queue drains (default: 2)",
    )
    replay = sub.add_parser(
        "replay", parents=[common],
        help="replay a synthetic event stream and verify checkpoint digests",
    )
    replay.add_argument(
        "--events", type=int, default=12,
        help="number of events to synthesize and apply (default: 12)",
    )
    replay.add_argument(
        "--event-seed", type=int, default=0,
        help="seed for the synthetic event stream (default: 0)",
    )
    replay.add_argument(
        "--checkpoints", type=int, default=3,
        help="instants to digest along the stream (default: 3)",
    )
    replay.add_argument(
        "--verify", action=argparse.BooleanOptionalAction, default=True,
        help="cold-rebuild at each checkpoint and compare digests "
             "(--no-verify prints live digests only)",
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        code = _dispatch(args)
    finally:
        if args.trace_json:
            obs.write_json(args.trace_json)
    return code


def _store_from(args: argparse.Namespace) -> CheckpointStore | None:
    """The checkpoint store selected by --cache-dir / REPRO_CACHE_DIR."""
    if getattr(args, "cache_dir", None):
        return CheckpointStore(args.cache_dir)
    return default_store()


def _obtain_world(args: argparse.Namespace):
    """Warm-start the world from the store, else build cold and save it."""
    store = _store_from(args)
    if store is not None:
        world = store.load(ScenarioConfig(), args.scale, args.seed)
        if world is not None:
            return world
    with obs.span("cli.build_world"):
        world = build_world(scale=args.scale, seed=args.seed)
    if store is not None:
        store.save(world)
    return world


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "cache":
        return _cache(args)
    if args.command == "sweep":
        return _sweep(args)
    if args.command == "serve":
        return _serve(args)
    if args.command == "replay":
        return _replay(args)
    if args.command == "reproduce":
        if args.list:
            print(registry_table())
            return 0
        try:
            specs = select(args.only)
        except KeyError as error:
            print(error.args[0], file=sys.stderr)
            return 2
    with obs.span(f"cli.{args.command}", scale=args.scale, seed=args.seed):
        world = _obtain_world(args)

        if args.command == "report":
            report = build_report(world)
            if args.json:
                print(json.dumps(report_as_dict(report), indent=2))
            else:
                print(render_report(report))
        elif args.command == "reproduce":
            sections = []
            for spec in specs:
                with obs.span(f"experiment.{spec.name}", title=spec.title):
                    sections.append(spec.render(spec.run(world)))
            print("\n\n".join(sections))
        elif args.command == "export":
            path = export_world(world, args.directory)
            print(f"datasets written to {path}")
        elif args.command == "audit":
            _audit(world, as_json=args.json)
        elif args.command == "hijack":
            _hijack(world, sub_prefix=args.sub_prefix, protected=args.protected)
        elif args.command == "ready":
            from repro.core.readiness import (
                check_readiness,
                readiness_as_dict,
                render_readiness,
            )

            if args.asn not in world.topology:
                print(f"AS{args.asn} is not in this world", file=sys.stderr)
                return 1
            readiness = check_readiness(world, args.asn)
            if args.json:
                print(json.dumps(readiness_as_dict(readiness), indent=2))
            else:
                print(render_readiness(readiness))
    return 0


def _serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.config import RuntimeConfig
    from repro.serve import (
        DEFAULT_BUILDERS,
        DEFAULT_QUEUE_LIMIT,
        ReproService,
        serve_forever,
    )

    store = _store_from(args)
    runtime = RuntimeConfig.resolve(
        cache_dir=str(store.root) if store is not None else None
    )
    service = ReproService(
        store=store,
        runtime=runtime,
        workers=args.workers,
        queue_limit=args.queue_limit or DEFAULT_QUEUE_LIMIT,
        builders=args.builders or DEFAULT_BUILDERS,
    )
    if store is None:
        print(
            "serving without a cache directory: results are cached "
            "in memory only (pass --cache-dir to persist them)",
            file=sys.stderr,
        )
    try:
        asyncio.run(
            serve_forever(
                service,
                args.host,
                args.port,
                announce=lambda line: print(line, flush=True),
            )
        )
    except KeyboardInterrupt:
        print("shutting down", file=sys.stderr)
    return 0


def _replay(args: argparse.Namespace) -> int:
    """Apply a synthetic event stream and digest the live world along it.

    With ``--verify`` (the default) every checkpoint is also rebuilt cold
    from the base world plus the applied prefix of the stream, and the
    two digests compared — the replay==rebuild invariant as a CLI
    one-liner.  Exits 1 on any mismatch.
    """
    from repro.datasets.checkpoint import world_digest
    from repro.delta import LiveWorld, cold_rebuild, synthesize_events

    if args.events < 1:
        print("--events must be positive", file=sys.stderr)
        return 2
    with obs.span(
        "cli.replay",
        scale=args.scale,
        seed=args.seed,
        events=args.events,
    ):
        world = _obtain_world(args)
        events = synthesize_events(
            world, n=args.events, seed=args.event_seed
        )
        live = LiveWorld(world)
        n_checkpoints = max(1, min(args.checkpoints, args.events))
        marks = sorted(
            {
                max(1, round((i + 1) * args.events / n_checkpoints))
                for i in range(n_checkpoints)
            }
        )
        failures = 0
        applied = 0
        for mark in marks:
            while applied < mark:
                live.apply(events[applied])
                applied += 1
            digest = world_digest(live.world())
            if args.verify:
                reference = world_digest(
                    cold_rebuild(world, events[:applied])
                )
                if digest == reference:
                    print(f"checkpoint {applied:>4}  {digest[:16]}  ok")
                else:
                    failures += 1
                    print(
                        f"checkpoint {applied:>4}  {digest[:16]}  "
                        f"MISMATCH (rebuild {reference[:16]})"
                    )
            else:
                print(f"checkpoint {applied:>4}  {digest[:16]}  ok")
    verdict = "all equal" if not failures else f"{failures} mismatched"
    mode = "replay==rebuild" if args.verify else "replay digests only"
    print(f"-- {applied} events, {len(marks)} checkpoints, {mode}: {verdict}")
    return 1 if failures else 0


def _sweep(args: argparse.Namespace) -> int:
    from repro.sweep import (
        RunLedger,
        SweepSpec,
        SweepSpecError,
        aggregate,
        render_report,
        render_status,
        run_sweep,
    )

    if args.sweep_command == "list":
        print(registry_table())
        return 0
    store = _store_from(args)
    if store is None:
        print(
            "no cache directory: pass --cache-dir or set REPRO_CACHE_DIR "
            "(the sweep ledger lives under <cache dir>/sweeps)",
            file=sys.stderr,
        )
        return 2
    ledger_root = store.root / "sweeps"
    try:
        spec = SweepSpec.from_file(args.spec)
        if getattr(args, "timeout", None) is not None:
            spec.timeout = args.timeout
        if getattr(args, "max_attempts", None) is not None:
            spec.max_attempts = max(1, args.max_attempts)
        jobs = spec.expand()
    except SweepSpecError as error:
        print(f"invalid sweep spec: {error}", file=sys.stderr)
        return 2

    if args.sweep_command in ("run", "resume"):
        outcome = run_sweep(
            spec,
            ledger_root,
            workers=args.workers,
            progress=lambda message: print(message, file=sys.stderr),
        )
        print(outcome.summary())
        for job_id, error in sorted(outcome.failures.items()):
            print(f"failed {job_id[:12]}: {error}")
        print(f"ledger: {outcome.ledger_dir}")
        return 0 if outcome.ok else 1
    ledger = RunLedger(ledger_root / spec.sweep_id)
    if args.sweep_command == "status":
        print(render_status(jobs, ledger.job_states()))
        return 0
    # report
    aggregated = aggregate(jobs, ledger.completed())
    print(render_report(aggregated))
    return 0 if not aggregated["missing"] else 1


def _cache(args: argparse.Namespace) -> int:
    store = _store_from(args)
    if store is None:
        print(
            "no cache directory: pass --cache-dir or set REPRO_CACHE_DIR",
            file=sys.stderr,
        )
        return 2
    if args.cache_command == "list":
        entries = store.entries()
        for info in entries:
            state = "ok" if info.complete else "incomplete"
            scale = "?" if info.scale is None else f"{info.scale:g}"
            seed = "?" if info.seed is None else info.seed
            print(
                f"{info.key[:16]}  scale={scale} seed={seed} "
                f"files={info.n_files} bytes={info.n_bytes} [{state}]"
            )
        total = sum(info.n_bytes for info in entries)
        print(f"-- {len(entries)} entries, {total} bytes in {store.root}")
    elif args.cache_command == "verify":
        report = store.verify()
        bad = 0
        for key, problems in sorted(report.items()):
            if problems:
                bad += 1
                for problem in problems:
                    print(f"{key[:16]}  {problem}")
            else:
                print(f"{key[:16]}  ok")
        print(f"-- {len(report) - bad}/{len(report)} entries verified")
        return 1 if bad else 0
    elif args.cache_command == "prune":
        removed = store.prune(keep=max(0, args.keep))
        for key in removed:
            print(f"removed {key[:16]}")
        print(f"-- {len(removed)} entries removed, {args.keep} kept")
    elif args.cache_command == "warm":
        with obs.span("cli.cache_warm", scale=args.scale, seed=args.seed):
            world = _obtain_world(args)
            summary = f"world scale={args.scale:g} seed={args.seed} stored"
            if args.years:
                from repro.scenario.timeline import Timeline

                timeline = Timeline(world, store=store)
                for year in timeline.years:
                    timeline.rov_at(year)
                summary += f" (+{len(timeline.years)} year snapshots)"
        print(f"{summary} in {store.root}")
    return 0


def _audit(world, as_json: bool = False) -> None:
    from repro.core.conformance import (
        is_action4_conformant,
        origination_stats,
    )
    from repro.manrs.actions import Program

    stats = origination_stats(world.ihr)
    rows = []
    for participant in world.manrs.participants:
        if participant.joined > world.snapshot_date:
            continue
        if participant.program not in (Program.ISP, Program.CDN):
            continue
        bad = [
            asn
            for asn in participant.asns
            if asn in stats
            and not is_action4_conformant(stats[asn], participant.program)
        ]
        if bad:
            org = world.topology.get_org(participant.org_id)
            rows.append(
                {
                    "org": org.name,
                    "program": participant.program.value,
                    "asns": [
                        {"asn": a, "og_conformant_pct": stats[a].og_conformant}
                        for a in bad
                    ],
                }
            )
    if as_json:
        print(json.dumps({"unconformant_orgs": rows}, indent=2))
        return
    for row in rows:
        asn_text = ", ".join(
            f"AS{entry['asn']} ({entry['og_conformant_pct']:.0f}%)"
            for entry in row["asns"]
        )
        print(f"{row['org']} [{row['program']}]: {asn_text}")
    print(f"-- {len(rows)} organisations unconformant to Action 4")


def _hijack(world, sub_prefix: bool, protected: bool) -> None:
    import numpy as np

    from repro.bgp.announcement import Announcement
    from repro.bgp.hijack import HijackKind, simulate_hijack
    from repro.bgp.policy import RouteClass
    from repro.topology.classify import SizeClass

    rng = np.random.default_rng(world.seed)
    stubs = [
        asn
        for asn, size in world.size_of.items()
        if size is SizeClass.SMALL and world.originations.get(asn)
    ]
    victim_asn, attacker = (int(a) for a in rng.choice(stubs, 2, replace=False))
    victim = Announcement(world.originations[victim_asn][0].prefix, victim_asn)
    outcome = simulate_hijack(
        world.engine,
        victim,
        attacker,
        world.vantage_points,
        kind=HijackKind.SUB_PREFIX if sub_prefix else HijackKind.EXACT_PREFIX,
        hijack_route_class=RouteClass(rpki_invalid=protected),
    )
    print(
        f"AS{attacker} hijacks {victim} "
        f"({outcome.kind.value}, victim {'ROA-protected' if protected else 'unprotected'}): "
        f"{100 * outcome.capture_fraction:.1f}% of vantage points captured"
    )


if __name__ == "__main__":
    sys.exit(main())
