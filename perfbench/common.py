"""Measurement helpers shared by the workloads.

Everything here observes the program from outside: clocks, resource
usage, ``/proc`` and the span tree :mod:`repro.obs` already records.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
#: End-to-end metrics (name -> unit), reported by every workload from its
#: untraced runs; NOTES.md says what each means per workload.
END_TO_END: dict[str, str] = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
#: Per-layer metrics (name -> unit), reported by every workload from its
#: traced run.  A layer the workload does not exercise reads 0.
PER_LAYER: dict[str, str] = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}

BUILD_STAGES = (
    "topology",
    "behaviors",
    "originations",
    "rpki",
    "irr",
    "relying_party",
    "classify",
    "collect_rib",
)
EXPERIMENTS = (
    "fig2", "fig4", "f70", "fig5", "f83", "tab1", "f87", "fig6",
    "fig7", "fig8", "tab2", "fig9", "rsrov", "cexp", "roastorm", "martian",
)
COLUMNAR_FIELDS = (
    "rib", "prefix2as", "topology", "as2org", "rov", "manrs", "irr", "ihr",
)
DELTA_DOMAINS = ("rpki", "irr", "manrs", "topology", "policy")


# -- statistics --------------------------------------------------------------


def percentile(values: list[float], q: int) -> float:
    """The ``q``-th percentile (linear interpolation between ranks)."""
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def median(values: list[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


# -- host speed --------------------------------------------------------------

#: Seconds one :func:`host_probe` takes on the reference host (2-vCPU
#: Intel Xeon at 2.0 GHz) in a quiet stretch.  It only scales the
#: normalised times; any fixed value would do.
PROBE_REF_S = 0.0145
#: Probes taken right before and right after each pass and set-up.
PROBES = 3
#: Within a pass, a step that starts this long after the last probe is
#: preceded by one more, so the probes sample the host's speed across
#: the whole pass (about 6% more work, none of it timed).
PROBE_EVERY_S = 0.25


def host_probe() -> float:
    """Seconds a fixed unit of reference work takes right now.

    The work never calls the program: interpreter-bound dict updates and
    a numpy sort, the two kinds of work the program mixes.  A change to
    the program therefore never changes the probe, while a host that
    runs slower slows both alike.
    """
    start = time.perf_counter()
    table: dict[int, int] = {}
    for i in range(60_000):
        table[i % 977] = table.get(i % 977, 0) + i
    values = np.random.default_rng(0).random(300_000)
    values.sort()
    values.cumsum()
    return time.perf_counter() - start


def host_probes() -> list[float]:
    return [host_probe() for _ in range(PROBES)]


def host_speed(probes: list[float]) -> float:
    """How much faster than usual the host ran around ``probes``: the
    factor that turns a time measured then into reference-host seconds."""
    return PROBE_REF_S / median(probes)


# -- resource usage ----------------------------------------------------------


def cpu_seconds() -> float:
    """User+sys CPU of this process plus every child it has reaped."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def reset_peak_rss() -> None:
    """Restart this process's high-water RSS (``VmHWM``) from now."""
    with open("/proc/self/clear_refs", "w") as handle:
        handle.write("5")


def status_kb(pid: int | str, key: str) -> int:
    """One ``/proc/<pid>/status`` size field (``VmRSS``, ``VmHWM``) in KiB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith(key + ":"):
                return int(line.split()[1])
    raise KeyError(key)


def peak_rss_mb() -> float:
    """This process's high-water RSS since :func:`reset_peak_rss`."""
    return status_kb("self", "VmHWM") / 1024.0


def children_peak_rss_mb() -> float:
    """The largest high-water RSS of any child this process has reaped.

    Forked pool workers start out sharing the parent's pages, so this
    counts those pages again; it is kept apart from :func:`peak_rss_mb`.
    """
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def pss_kb(pid: int | str) -> int:
    """Proportional set size of a process in KiB: each page shared with
    other processes counts once, split between them."""
    with open(f"/proc/{pid}/smaps_rollup") as handle:
        for line in handle:
            if line.startswith("Pss:"):
                return int(line.split()[1])
    raise KeyError("Pss")


class TreePss:
    """Sample the summed PSS of this process and its live children.

    A forked pool worker shares its parent's pages, so summing the
    processes' RSS would count those pages once per worker; PSS counts
    each page once.  The kernel keeps no high-water mark for PSS, so a
    thread samples it every ``interval`` seconds while the context is
    open and :attr:`peak_mb` is the largest sample.
    """

    def __init__(self, interval: float = 0.02):
        self.interval = interval
        self.peak_mb = 0.0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def sample(self) -> None:
        total = 0
        own = os.getpid()
        for pid in (own, *child_pids(own)):
            try:
                total += pss_kb(pid)
            except OSError:
                pass  # a worker exited between listing and reading
        self.peak_mb = max(self.peak_mb, total / 1024.0)

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            self.sample()

    def __enter__(self) -> "TreePss":
        self.sample()
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self.sample()


_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def process_cpu_s(pid: int) -> float:
    """User+sys CPU seconds of a live process, from ``/proc/<pid>/stat``."""
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS


def child_pids(pid: int) -> list[int]:
    """Live direct children of ``pid``, whichever of its threads started them."""
    found = []
    for task in os.listdir(f"/proc/{pid}/task"):
        try:
            with open(f"/proc/{pid}/task/{task}/children") as handle:
                found.extend(int(entry) for entry in handle.read().split())
        except OSError:
            pass  # the thread ended between listing and reading
    return found


# -- span trees --------------------------------------------------------------


def span_totals(roots) -> tuple[dict[str, float], dict[str, float]]:
    """Per-name (self, inclusive) seconds summed over a span forest.

    A span's self time is its duration minus its children's; summing
    per name over one pass keeps stages that repeat inside that pass
    (``timeline.rov_at`` once per year) while never mixing two passes,
    because the caller resets the trace before each.
    """
    own: dict[str, float] = {}
    inclusive: dict[str, float] = {}
    stack = list(roots)
    while stack:
        node = stack.pop()
        children = node.children
        own[node.name] = own.get(node.name, 0.0) + node.elapsed - sum(
            child.elapsed for child in children
        )
        inclusive[node.name] = inclusive.get(node.name, 0.0) + node.elapsed
        stack.extend(children)
    return own, inclusive


def span_attr(roots, name: str, attr: str) -> float:
    """The last value of ``attr`` on any span called ``name`` (0 if none)."""
    value = 0.0
    stack = list(roots)
    while stack:
        node = stack.pop()
        if node.name == name and attr in node.attrs:
            value = float(node.attrs[attr])
        stack.extend(node.children)
    return value


def build_layers(roots, counters: dict[str, float]) -> dict[str, float]:
    """Per-layer numbers of one ``build_world`` call from its spans and the
    counters read right after it."""
    own, _ = span_totals(roots)
    layers = {f"build.{stage}_s": own.get(f"build.{stage}", 0.0) for stage in BUILD_STAGES}
    layers["ihr.validate_s"] = own.get("ihr.validate", 0.0)
    layers["ihr.hegemony_s"] = own.get("ihr.hegemony", 0.0)
    for stage in BUILD_STAGES + ("ihr",):
        layers[f"build.{stage}_rss_mb"] = span_attr(roots, f"build.{stage}", "rss_mb")
    hits = counters.get("propagation.cache_hits", 0)
    misses = counters.get("propagation.cache_misses", 0)
    layers["collect.routes_propagated"] = counters.get("collect.routes_propagated", 0)
    layers["propagation.cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    layers["hegemony.partitions"] = counters.get("hegemony.partitions", 0)
    layers["build.spill.blocks"] = counters.get("build.spill.blocks", 0)
    layers["build.spill.bytes"] = counters.get("build.spill.bytes", 0)
    return layers


# -- results -----------------------------------------------------------------


#: Nominal length of one workload pass on the reference host.  A run
#: makes ``--seconds // PASS_SECONDS`` passes, so the pass count depends
#: on the arguments only, never on how fast the host happens to be.
PASS_SECONDS = 4.0


def pass_count(seconds: float) -> int:
    """The fixed number of identical passes a run of ``seconds`` makes."""
    return max(1, int(seconds // PASS_SECONDS))


@dataclass
class Outcome:
    """What one workload run measured and checked.

    A run makes a fixed number of identical passes (:func:`pass_count`),
    timing every step of each, and times several set-ups.  The host's
    speed drifts: a fixed unit of work run back to back for minutes took
    from 1× to 1.8× its quickest time, in stretches of ten seconds and
    more, longer than a run.  No statistic over one run's passes removes
    that, so each pass and set-up is bracketed by :func:`host_probes`,
    and its times are scaled by :func:`host_speed` into reference-host
    seconds.  End-to-end times report the median pass so scaled, and
    set-up the median repeat.
    """

    setup_s: list[float] = field(default_factory=list)
    setup_probes: list[float] = field(default_factory=list)
    #: Per pass: step name -> (wall seconds, CPU seconds).
    passes: list[dict[str, tuple[float, float]]] = field(default_factory=list)
    #: Per pass: the host probes taken right before and after it.
    pass_probes: list[list[float]] = field(default_factory=list)
    #: Ops one pass performs (experiments, builds, events), and the prefix
    #: of the names of the steps that perform them.
    ops_per_pass: int = 0
    op_steps: str = ""
    #: Per pass, the measured rate, where a workload reports a stretch
    #: of steady load.
    rates: list[float] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    errors: dict[str, int] = field(default_factory=dict)
    checks: dict[str, bool] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)
    _last_probe: float = 0.0

    def fail(self, error: BaseException) -> None:
        self.failed += 1
        label = f"{type(error).__name__}: {error}"
        self.errors[label] = self.errors.get(label, 0) + 1

    @contextmanager
    def setup(self):
        """Time one set-up repeat, between host probes."""
        probes = host_probes()
        start = time.perf_counter()
        yield
        self.setup_s.append(time.perf_counter() - start)
        self.setup_probes.extend(probes + host_probes())

    @contextmanager
    def measured_pass(self):
        """Open the next pass's step table, between host probes."""
        self.pass_probes.append(host_probes())
        self._last_probe = time.perf_counter()
        self.passes.append({})
        yield
        self.pass_probes[-1].extend(host_probes())

    @contextmanager
    def step(self, name: str):
        """Time one step of the current pass (wall and CPU)."""
        if time.perf_counter() - self._last_probe >= PROBE_EVERY_S:
            self.pass_probes[-1].append(host_probe())
            self._last_probe = time.perf_counter()
        cpu = cpu_seconds()
        start = time.perf_counter()
        yield
        self.passes[-1][name] = (time.perf_counter() - start, cpu_seconds() - cpu)

    def pass_totals(self, prefix: str = "") -> list[tuple[float, float]]:
        """Per pass, wall and CPU reference-host seconds summed over the
        steps whose names start with ``prefix`` (all steps by default)."""
        totals = []
        for steps, probes in zip(self.passes, self.pass_probes):
            speed = host_speed(probes)
            chosen = [times for name, times in steps.items() if name.startswith(prefix)]
            totals.append(
                (
                    speed * sum(wall for wall, _ in chosen),
                    speed * sum(cpu for _, cpu in chosen),
                )
            )
        return totals

    def wall_s(self) -> float:
        return median([wall for wall, _ in self.pass_totals()])

    def end_to_end(self) -> dict[str, float]:
        if self.rates:
            # A rate is work over time: reference-host seconds divide it
            # by the host speed.
            ops_per_s = median(
                [rate / host_speed(probes) for rate, probes in zip(self.rates, self.pass_probes)]
            )
        else:
            op_wall = median([wall for wall, _ in self.pass_totals(self.op_steps)])
            ops_per_s = self.ops_per_pass / op_wall
        return {
            "setup_s": host_speed(self.setup_probes) * median(self.setup_s),
            "wall_s": self.wall_s(),
            "cpu_s": median([cpu for _, cpu in self.pass_totals()]),
            "peak_rss_mb": self.peak_rss_mb,
            "ops_per_s": ops_per_s,
        }

    def per_layer(self) -> dict[str, float]:
        values = {name: 0.0 for name in PER_LAYER}
        values.update(self.layers)
        values["ops_failed_share"] = self.failed / self.attempted if self.attempted else 0.0
        values["traced.wall_s"] = self.wall_s()
        values["host.probe_ms"] = 1000.0 * median(
            self.setup_probes + [t for probes in self.pass_probes for t in probes]
        )
        unknown = set(values) - set(PER_LAYER)
        if unknown:
            raise KeyError(f"unlisted per-layer metrics {sorted(unknown)}")
        return values
