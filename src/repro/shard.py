"""Deterministic sharding for the dominant world-build stages.

The scale-10 build cannot sit resident as one object graph, so the two
stages with the largest derived datasets stream through worker
processes instead: RIB collection and IHR transit scoring both shard by
**route-group (origin, class) range**.  A task names only its range;
the stage inputs reach the workers once, through the pool initializer
of a ``fork``-context pool.  Workers emit *column shards* — flat
integer arrays plus a tiny manifest — and the driver concatenates them
in shard order.  Route classification is not sharded: its serial bulk
kernel is cheaper than a pool (DESIGN §13).

Determinism is structural, not incidental (DESIGN §13):

* shards are **contiguous slices** of an already-deterministically
  ordered sequence (``split_evenly`` never reorders);
* each worker's output depends only on its own slice (propagation and
  per-group hegemony are both per-group pure);
* the driver concatenates in ascending shard index, which therefore
  reproduces exactly the serial iteration order.

So shard counts 1 and N are byte-identical by construction, and the
golden-digest suite pins it.

Safety mirrors the checkpoint contract: a shard manifest that fails
validation (schema skew, wrong shard arity, wrong row accounting) is
*not* patched up — the driver logs a warning, discards the sharded
attempt entirely and recomputes serially.  ``REPRO_SHARDS`` sets the
default shard count (1 = sharding off).
"""

from __future__ import annotations

import logging
import multiprocessing
import os
import tempfile
from concurrent.futures import ProcessPoolExecutor
from functools import partial
from typing import Callable, Iterator, Mapping, Sequence, TypeVar

import numpy as np

from repro import config as _config
from repro import obs

__all__ = [
    "BUILD_BUDGET_ENV",
    "SHARDS_ENV",
    "SHARD_SCHEMA_VERSION",
    "ColumnAccumulator",
    "SpillError",
    "check_shard_manifests",
    "pool_map_consume",
    "range_tasks",
    "resolve_build_budget",
    "resolve_shards",
    "shard_manifest",
    "split_evenly",
]

log = logging.getLogger(__name__)

SHARDS_ENV = "REPRO_SHARDS"

BUILD_BUDGET_ENV = "REPRO_BUILD_BUDGET_MB"

#: Bumped whenever the inter-process shard column layout changes; a
#: worker/driver version skew discards the shard and falls back serial.
SHARD_SCHEMA_VERSION = 2

T = TypeVar("T")


def resolve_shards(shards: int | None = None) -> int:
    """Effective shard count: explicit argument, else the active
    :class:`repro.config.RuntimeConfig` (which falls back to
    ``REPRO_SHARDS``), else 1."""
    if shards is None:
        shards = _config.current().shards
    return max(1, shards)


def split_evenly(items: Sequence[T], shards: int) -> list[Sequence[T]]:
    """Split into at most ``shards`` contiguous, order-preserving chunks.

    Chunk sizes differ by at most one and empty chunks are dropped, so
    the concatenation of the result *is* ``items`` — the property every
    shard-identity argument in this package rests on.
    """
    shards = min(max(1, shards), len(items)) if items else 1
    base, extra = divmod(len(items), shards)
    chunks: list[Sequence[T]] = []
    start = 0
    for index in range(shards):
        size = base + (1 if index < extra else 0)
        if size:
            chunks.append(items[start : start + size])
        start += size
    return chunks


def range_tasks(count: int, shards: int) -> list[tuple[int, int, int, int]]:
    """``(index, total, start, stop)`` descriptors of at most ``shards``
    contiguous ranges covering ``range(count)`` in order.

    The ranges are :func:`split_evenly`'s chunks, so a shard task is a
    few integers however large its slice: workers look the slice up in
    the stage inputs their pool initializer installed.
    """
    chunks = split_evenly(range(count), shards)
    return [
        (index, len(chunks), chunk.start, chunk.stop)
        for index, chunk in enumerate(chunks)
    ]


def resolve_build_budget(budget_mb: float | None = None) -> int | None:
    """Effective build byte budget: explicit MB argument, else the active
    :class:`repro.config.RuntimeConfig` (which falls back to
    ``REPRO_BUILD_BUDGET_MB``).  Returns whole bytes, or None when the
    build should stay entirely in memory."""
    if budget_mb is None:
        budget_mb = _config.current().build_budget_mb
    if budget_mb is None:
        return None
    return max(0, int(budget_mb * 1024 * 1024))


class SpillError(RuntimeError):
    """A spilled column block could not be written back or read back.

    Mirrors the shard-manifest contract: the driver never stitches a
    partial spill — it discards the sharded/budgeted attempt entirely
    and recomputes along the in-memory path.
    """


class _SpillRef:
    """Where one spilled array lives inside the scratch file."""

    __slots__ = ("dtype", "shape", "offset", "nbytes")

    def __init__(self, dtype, shape, offset: int, nbytes: int) -> None:
        self.dtype = dtype
        self.shape = shape
        self.offset = offset
        self.nbytes = nbytes


class ColumnAccumulator:
    """Ordered column blocks with an optional spill-to-disk byte budget.

    Shard drivers :meth:`append` one dict of ndarray columns per shard,
    in ascending shard order; the accumulator preserves that order
    exactly, so :meth:`concat` reproduces the serial concatenation the
    digest identity rests on (DESIGN §13/§18).  When the buffered bytes
    exceed ``budget_bytes``, every fully-appended block is flushed to a
    single per-stage scratch file as raw C-contiguous bytes and the
    in-memory references are dropped — block memory is only released
    after the write is verified against the file size.

    Read-back (:meth:`block`, :meth:`concat`) reads each spilled array
    straight into its destination buffer, so peak RSS during concat is
    the output columns plus one block.  A scratch file that fails
    verification (external truncation, short read) is discarded — never
    patched — the ``build.spill.corrupt`` counter is bumped and
    :class:`SpillError` raised so the caller can fall back in memory.
    """

    def __init__(
        self,
        stage: str,
        budget_bytes: int | None = None,
        scratch_dir: str | None = None,
    ) -> None:
        self.stage = stage
        self.budget_bytes = budget_bytes
        self.scratch_dir = scratch_dir
        self._blocks: list[dict[str, np.ndarray | _SpillRef]] = []
        self._buffered_bytes = 0
        self._file = None
        self._path: str | None = None
        self._tell = 0
        self._closed = False

    # -- lifecycle -----------------------------------------------------------

    def __enter__(self) -> "ColumnAccumulator":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Release buffered blocks and delete the scratch file."""
        self._closed = True
        self._blocks = []
        self._buffered_bytes = 0
        self._discard_scratch()

    def _discard_scratch(self) -> None:
        if self._file is not None:
            try:
                self._file.close()
            except OSError:  # pragma: no cover - close best effort
                pass
            self._file = None
        if self._path is not None:
            try:
                os.unlink(self._path)
            except OSError:
                pass
            self._path = None
        self._tell = 0

    # -- introspection -------------------------------------------------------

    @property
    def block_count(self) -> int:
        return len(self._blocks)

    @property
    def spilled(self) -> bool:
        """Whether any block currently lives on disk."""
        return any(
            isinstance(entry, _SpillRef)
            for block in self._blocks
            for entry in block.values()
        )

    # -- writing -------------------------------------------------------------

    def append(self, columns: Mapping[str, np.ndarray]) -> int:
        """Add one completed column block; returns its block index.

        Arrays are kept by reference until a spill is triggered, so the
        zero-budget/no-budget path adds no copies over the historical
        buffered-list driver.
        """
        if self._closed:
            raise SpillError(f"{self.stage}: accumulator is closed")
        block: dict[str, np.ndarray | _SpillRef] = {}
        for name, array in columns.items():
            array = np.asarray(array)
            if array.dtype.hasobject:
                raise ValueError(
                    f"{self.stage}: column {name!r} has object dtype; "
                    "only plain-data columns can be accumulated"
                )
            block[name] = array
            self._buffered_bytes += array.nbytes
        self._blocks.append(block)
        if (
            self.budget_bytes is not None
            and self._buffered_bytes > self.budget_bytes
        ):
            self._spill()
        return len(self._blocks) - 1

    def _ensure_scratch(self):
        if self._file is None:
            fd, path = tempfile.mkstemp(
                prefix=f"repro-{self.stage.replace('/', '_')}-",
                suffix=".spill",
                dir=self.scratch_dir,
            )
            self._file = os.fdopen(fd, "w+b")
            self._path = path
            self._tell = 0
            obs.add("build.spill.files")
        return self._file

    def _spill(self) -> None:
        """Flush every buffered array to the scratch file, verified.

        Memory is released only after the write is confirmed: the file
        is flushed and its size checked against the expected offset, so
        a short write surfaces as a :class:`SpillError` while the
        in-memory arrays are still intact (the caller's in-memory
        fallback stays sound).
        """
        try:
            handle = self._ensure_scratch()
            handle.seek(self._tell)
            pending: list[tuple[dict, str, np.ndarray, _SpillRef]] = []
            offset = self._tell
            spilled_blocks = 0
            spilled_bytes = 0
            for block in self._blocks:
                block_spilled = False
                for name, entry in block.items():
                    if isinstance(entry, _SpillRef):
                        continue
                    flat = np.ascontiguousarray(entry)
                    handle.write(memoryview(flat).cast("B"))
                    ref = _SpillRef(
                        entry.dtype, entry.shape, offset, flat.nbytes
                    )
                    offset += flat.nbytes
                    spilled_bytes += flat.nbytes
                    pending.append((block, name, entry, ref))
                    block_spilled = True
                if block_spilled:
                    spilled_blocks += 1
            handle.flush()
            actual = os.fstat(handle.fileno()).st_size
            if actual < offset:
                raise SpillError(
                    f"{self.stage}: scratch write verified short "
                    f"({actual} < {offset} bytes)"
                )
        except OSError as error:
            obs.add("build.spill.corrupt")
            self._discard_scratch()
            raise SpillError(f"{self.stage}: scratch write failed: {error}")
        except SpillError:
            obs.add("build.spill.corrupt")
            self._discard_scratch()
            raise
        # The write is verified — only now do the buffered arrays go.
        for block, name, entry, ref in pending:
            block[name] = ref
            self._buffered_bytes -= entry.nbytes
        self._tell = offset
        obs.add("build.spill.blocks", spilled_blocks)
        obs.add("build.spill.bytes", spilled_bytes)

    # -- reading -------------------------------------------------------------

    def _read_into(self, ref: _SpillRef, out: np.ndarray) -> None:
        """Fill ``out`` (C-contiguous, matching dtype/size) from scratch."""
        handle = self._file
        if handle is None:
            raise SpillError(f"{self.stage}: scratch file already discarded")
        try:
            handle.flush()
            size = os.fstat(handle.fileno()).st_size
            if ref.offset + ref.nbytes > size:
                raise SpillError(
                    f"{self.stage}: scratch file truncated "
                    f"({size} bytes, need {ref.offset + ref.nbytes})"
                )
            handle.seek(ref.offset)
            view = memoryview(out).cast("B")
            read = handle.readinto(view)
            if read != ref.nbytes:
                raise SpillError(
                    f"{self.stage}: short scratch read "
                    f"({read} != {ref.nbytes} bytes)"
                )
        except OSError as error:
            obs.add("build.spill.corrupt")
            self._discard_scratch()
            raise SpillError(f"{self.stage}: scratch read failed: {error}")
        except SpillError:
            obs.add("build.spill.corrupt")
            self._discard_scratch()
            raise

    def _fetch(self, entry: np.ndarray | _SpillRef) -> np.ndarray:
        if isinstance(entry, _SpillRef):
            out = np.empty(entry.shape, dtype=entry.dtype)
            self._read_into(entry, out)
            return out
        return entry

    def block(self, index: int) -> dict[str, np.ndarray]:
        """One appended block, reading spilled columns back from scratch."""
        return {
            name: self._fetch(entry)
            for name, entry in self._blocks[index].items()
        }

    def blocks(self) -> Iterator[dict[str, np.ndarray]]:
        """All blocks in append order, one resident at a time."""
        for index in range(len(self._blocks)):
            yield self.block(index)

    def column_names(self) -> list[str]:
        """Column names in first-appearance order across all blocks."""
        names: dict[str, None] = {}
        for block in self._blocks:
            for name in block:
                names.setdefault(name)
        return list(names)

    def concat(self) -> dict[str, np.ndarray]:
        """Per-column concatenation across blocks, in append order.

        Equivalent to ``np.concatenate`` over the blocks each column
        appears in; spilled segments are read directly into the output
        buffer, so no intermediate per-block copies accumulate.
        """
        out: dict[str, np.ndarray] = {}
        for name in self.column_names():
            entries = [
                block[name] for block in self._blocks if name in block
            ]
            dtype = entries[0].dtype
            if any(entry.dtype != dtype for entry in entries):
                raise ValueError(
                    f"{self.stage}: column {name!r} mixes dtypes across "
                    "blocks"
                )
            total = sum(entry.nbytes for entry in entries)
            itemsize = np.dtype(dtype).itemsize or 1
            merged = np.empty(total // itemsize, dtype=dtype)
            position = 0
            for entry in entries:
                length = entry.nbytes // itemsize
                segment = merged[position : position + length]
                if isinstance(entry, _SpillRef):
                    self._read_into(entry, segment)
                else:
                    segment[:] = np.asarray(entry).reshape(-1)
                position += length
            out[name] = merged
        return out


def shard_manifest(stage: str, index: int, total: int, rows: int) -> dict:
    """The header a worker attaches to one emitted column shard."""
    return {
        "schema": SHARD_SCHEMA_VERSION,
        "stage": stage,
        "shard": index,
        "of": total,
        "rows": rows,
    }


def check_shard_manifests(
    manifests: Sequence[dict], stage: str, total: int
) -> list[str]:
    """Validate a full set of shard manifests; returns problems (empty = ok).

    Any problem means the driver must discard the sharded results and
    fall back to the serial path — never stitch together a partial or
    version-skewed set.
    """
    problems: list[str] = []
    if len(manifests) != total:
        problems.append(f"expected {total} shards, got {len(manifests)}")
    for position, manifest in enumerate(manifests):
        if not isinstance(manifest, dict):
            problems.append(f"shard {position}: manifest is not a mapping")
            continue
        schema = manifest.get("schema")
        if schema != SHARD_SCHEMA_VERSION:
            problems.append(
                f"shard {position}: schema skew ({schema!r} != "
                f"{SHARD_SCHEMA_VERSION})"
            )
        if manifest.get("stage") != stage:
            problems.append(
                f"shard {position}: stage {manifest.get('stage')!r} != {stage!r}"
            )
        if manifest.get("shard") != position or manifest.get("of") != total:
            problems.append(
                f"shard {position}: out of order "
                f"({manifest.get('shard')!r} of {manifest.get('of')!r})"
            )
    return problems


def _pool_context():
    """The ``fork`` start method wherever the platform has it.

    Stage inputs reach workers through the pool initializer; under
    ``fork`` its arguments are inherited by the child, never pickled.
    Named explicitly because Python 3.14 moves the Linux default to
    ``forkserver``, which would silently pickle them once per worker.
    """
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return None


def _with_counter_delta(fn: Callable, task):
    """Run one pool task; return its result and the counters it added."""
    before = obs.counters()
    result = fn(task)
    delta = {
        name: value - before.get(name, 0)
        for name, value in obs.counters().items()
        if value != before.get(name, 0)
    }
    return result, delta


def pool_map_consume(
    fn: Callable,
    tasks: Sequence,
    workers: int,
    consume: Callable,
    initializer: Callable | None = None,
    initargs: tuple = (),
) -> bool:
    """Stream ``fn`` over ``tasks`` on a process pool, in task order,
    feeding each result to ``consume`` as it arrives.

    Tasks should be small descriptors (index ranges): the bulky stage
    inputs belong in ``initargs``, which forked workers inherit.
    ``consume`` typically appends columns to a :class:`ColumnAccumulator`,
    which bounds the driver's working set.  Returns False when no pool
    can be established (the caller must discard whatever ``consume``
    accumulated and fall back serial); ``consume`` and worker exceptions
    propagate.

    Each task's counter increments in the worker are added to the
    driver's counters (and its open span) before its result is
    consumed, so a sharded stage counts what the serial one does (a
    discarded sharded attempt's counts stay added).
    """
    workers = max(1, min(workers, len(tasks)))
    try:
        with ProcessPoolExecutor(
            max_workers=workers,
            mp_context=_pool_context(),
            initializer=initializer,
            initargs=initargs,
        ) as pool:
            for result, delta in pool.map(
                partial(_with_counter_delta, fn), tasks
            ):
                for name, value in delta.items():
                    obs.add(name, value)
                consume(result)
    except OSError:
        obs.add("shard.pool_unavailable")
        return False
    obs.add("shard.pool_maps")
    return True
