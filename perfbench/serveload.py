"""The ``repro serve`` subprocess and a closed-loop client for it.

The server runs in its own session so that stopping it also stops its
build pool.  The client is one asyncio process holding a fixed number
of keep-alive connections; each sends its next request only after the
previous answer arrived (a closed loop), drawing from one seeded
request sequence (:class:`Requests`).
"""

from __future__ import annotations

import asyncio
import os
import random
import select
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from common import child_pids, process_cpu_s, status_kb

#: Share of requests that go to the meta endpoints.
META_SHARE = 0.05


class Server:
    """``python -m repro serve`` on an ephemeral port over one store."""

    def __init__(self, store: Path, workers: int, log_path: Path, src: Path):
        env = dict(os.environ, PYTHONPATH=str(src))
        self._log = open(log_path, "ab")
        self.process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "--cache-dir", str(store),
                "serve", "--port", "0", "--workers", str(workers),
            ],
            stdout=subprocess.PIPE,
            stderr=self._log,
            env=env,
            start_new_session=True,
        )
        self.pid = self.process.pid
        self.port = self._await_port(timeout=60.0)

    def _await_port(self, timeout: float) -> int:
        stream = self.process.stdout
        ready, _, _ = select.select([stream], [], [], timeout)
        line = stream.readline().decode() if ready else ""
        if not line.startswith("serving on "):
            self.stop()
            raise RuntimeError(f"server did not come up (said {line!r})")
        return int(line.strip().rsplit(":", 1)[1])

    def tree(self) -> list[int]:
        """The server and its live build workers."""
        return [self.pid, *child_pids(self.pid)]

    def workers_cpu_s(self) -> float:
        """CPU seconds of the server's live children: the build worker
        (and the pool's idle resource tracker)."""
        total = 0.0
        for pid in child_pids(self.pid):
            try:
                total += process_cpu_s(pid)
            except OSError:
                pass  # a worker exited between listing and reading
        return total

    def peak_rss_mb(self) -> float:
        total = 0
        for pid in self.tree():
            try:
                total += status_kb(pid, "VmHWM")
            except OSError:
                pass
        return total / 1024.0

    def rss_kb(self) -> int:
        return status_kb(self.pid, "VmRSS")

    def stop(self) -> None:
        """Terminate the whole session, escalate to SIGKILL, and wait until
        no process of it is left.

        SIGTERM rather than SIGINT: a process started from a shell's
        background job inherits SIGINT ignored, and Python then installs
        no KeyboardInterrupt handler, so the server would sit it out.
        """
        group = self.pid
        for sig, grace in ((signal.SIGTERM, 10.0), (signal.SIGKILL, 10.0)):
            try:
                os.killpg(group, sig)
            except ProcessLookupError:
                break
            try:
                self.process.wait(timeout=grace)
            except subprocess.TimeoutExpired:
                continue
            if _group_gone(group, grace):
                break
        self.process.wait()
        self.process.stdout.close()
        self._log.close()


def _group_gone(group: int, timeout: float) -> bool:
    """Wait until no process of ``group`` still runs.

    A zombie has ended and counts as gone: the server's build worker and
    the pool's resource tracker are orphaned when the server dies, and
    only the system's init process can reap them, which it may take a
    second or more to do.
    """
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if not _running_members(group):
            return True
        time.sleep(0.05)
    return False


def _running_members(group: int) -> list[int]:
    """Processes of ``group`` that have not ended (zombies excluded)."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                state, _, pgrp = handle.read().rsplit(")", 1)[1].split()[:3]
        except OSError:
            continue  # ended between listing and reading
        if int(pgrp) == group and state != "Z":
            found.append(int(entry))
    return found


async def _get(reader, writer, target: str) -> tuple[int, str, bytes]:
    writer.write(f"GET {target} HTTP/1.1\r\nhost: bench\r\n\r\n".encode())
    await writer.drain()
    head = await reader.readuntil(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    status = int(lines[0].split()[1])
    headers = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    body = await reader.readexactly(int(headers.get("content-length", "0")))
    return status, headers.get("etag", ""), body


@dataclass
class LoadResult:
    """Per-request records of one closed-loop pass."""

    #: Time, and build-worker CPU, until every key had been answered once.
    warm_s: float = 0.0
    warm_cpu_s: float = 0.0
    #: Median latency of the hits of the all-hit stretch, in seconds.
    stretch_hit_p50_s: float = 0.0
    # (kind, key, latency seconds, status) with kind in hit/miss/meta.
    records: list[tuple[str, str, float, int]] = field(default_factory=list)
    first_answers: dict[str, tuple[bytes, str]] = field(default_factory=dict)
    mismatched_hits: int = 0
    rss_warm_kb: int = 0
    rss_end_kb: int = 0
    requests_warm: int = 0
    peak_rss_mb: float = 0.0


class Requests:
    """The seeded request sequence of one closed-loop pass.

    5% of requests go to the meta endpoints.  One connection first asks
    every key once in a seeded order (the misses) while the others draw
    uniformly among keys already answered (hits); once every key has an
    answer, all connections draw freely.  Misses therefore never queue
    behind one another, so each key's first answer costs its own build
    and nothing else, whatever the seed.  Every request after a key's
    first answer is a hit, so most requests are hits without assuming
    any popularity curve.
    """

    def __init__(self, keys: list[str], seed: int):
        self._rng = random.Random(seed)
        self.sweep = list(keys)
        self._rng.shuffle(self.sweep)
        #: Keys answered so far, in the order of their first answers.
        self.answered: list[str] = []

    def meta(self) -> str | None:
        if self._rng.random() < META_SHARE:
            return self._rng.choice(("/healthz", "/metrics"))
        return None

    def answered_key(self) -> str:
        """A key drawn uniformly among the keys already answered."""
        return self._rng.choice(self.answered)


async def closed_loop(
    server: Server,
    keys: list[str],
    seed: int,
    hit_stretch_s: float,
    connections: int,
    warm_timeout_s: float = 120.0,
) -> LoadResult:
    """Run one pass: every key answered once, then ``hit_stretch_s``
    seconds of hits.  See :class:`Requests` for the sequence."""
    result = LoadResult()
    requests = Requests(keys, seed)
    answered = requests.answered
    first_answer = asyncio.Event()
    cpu_start = server.workers_cpu_s()
    start = time.perf_counter()
    stop_at = start + warm_timeout_s

    async def connection(sweeper: bool):
        nonlocal stop_at
        pending = iter(requests.sweep) if sweeper else iter(())
        if not sweeper:
            await first_answer.wait()
        reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
        try:
            while time.perf_counter() < stop_at:
                target = requests.meta()
                key = ""
                if target is None:
                    key = next(pending, None) or requests.answered_key()
                    target = key
                kind = "meta" if not key else ("hit" if key in answered else "miss")
                sent = time.perf_counter()
                status, etag, body = await _get(reader, writer, target)
                now = time.perf_counter()
                result.records.append((kind, key, now - sent, status))
                if not key:
                    continue
                if key not in answered:
                    answered.append(key)
                    first_answer.set()
                    result.first_answers[key] = (body, etag)
                    if len(answered) == len(keys):
                        result.warm_s = now - start
                        result.warm_cpu_s = server.workers_cpu_s() - cpu_start
                        result.rss_warm_kb = server.rss_kb()
                        result.requests_warm = len(result.records)
                        stop_at = now + hit_stretch_s
                elif (body, etag) != result.first_answers[key]:
                    result.mismatched_hits += 1
        finally:
            writer.close()
            await writer.wait_closed()

    await asyncio.gather(*(connection(index == 0) for index in range(connections)))
    if len(answered) < len(keys):
        raise RuntimeError(f"only {len(answered)} of {len(keys)} keys answered")
    result.stretch_hit_p50_s = statistics.median(
        latency for kind, _, latency, _ in result.records[result.requests_warm :] if kind == "hit"
    )
    result.peak_rss_mb = server.peak_rss_mb()
    result.rss_end_kb = server.rss_kb()
    return result


async def fetch(server: Server, target: str) -> tuple[int, bytes]:
    reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
    try:
        status, _, body = await _get(reader, writer, target)
    finally:
        writer.close()
        await writer.wait_closed()
    return status, body
