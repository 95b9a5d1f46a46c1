"""Shard helpers and shard-identity: 1 shard vs N shards is identical.

``split_evenly`` carries the whole determinism argument (DESIGN §13):
shards are contiguous slices of an already-ordered sequence, so
concatenating worker outputs in shard order reproduces the serial
iteration exactly.  The Hypothesis block pins that property; the
integration tests pin it end-to-end on the real build stages; the
manifest tests pin the discard-don't-stitch safety contract; the
work-shape tests pin that sharding adds no work beyond the serial path.
"""

from __future__ import annotations

import pickle
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.bgp import collector as collector_module
from repro.bgp.announcement import Announcement
from repro.bgp.collector import collect_rib
from repro.ihr import pipeline as ihr_pipeline
from repro.ihr.pipeline import build_ihr_dataset
from repro.scenario.build import _build_world, build_world
from repro.shard import (
    SHARD_SCHEMA_VERSION,
    ColumnAccumulator,
    SpillError,
    check_shard_manifests,
    resolve_shards,
    shard_manifest,
    split_evenly,
)


class TestSplitEvenly:
    @given(
        items=st.lists(st.integers(), max_size=200),
        shards=st.integers(min_value=1, max_value=32),
    )
    @settings(max_examples=120, deadline=None)
    def test_concatenation_is_order_identical(self, items, shards):
        chunks = split_evenly(items, shards)
        merged = [item for chunk in chunks for item in chunk]
        assert merged == items
        one = [item for chunk in split_evenly(items, 1) for item in chunk]
        assert merged == one

    @given(
        items=st.lists(st.integers(), min_size=1, max_size=200),
        shards=st.integers(min_value=1, max_value=32),
    )
    @settings(max_examples=120, deadline=None)
    def test_chunk_sizes_balanced_and_nonempty(self, items, shards):
        chunks = split_evenly(items, shards)
        assert len(chunks) == min(shards, len(items))
        sizes = [len(c) for c in chunks]
        assert all(sizes)
        assert max(sizes) - min(sizes) <= 1
        assert sum(sizes) == len(items)

    def test_empty_input(self):
        assert split_evenly([], 4) == []

    def test_more_shards_than_items(self):
        assert split_evenly([1, 2], 8) == [[1], [2]]


class TestResolveShards:
    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHARDS", "7")
        assert resolve_shards(3) == 3

    def test_env_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHARDS", "5")
        assert resolve_shards() == 5

    def test_garbage_env_warns_to_one(self, monkeypatch, caplog):
        monkeypatch.setenv("REPRO_SHARDS", "lots")
        with caplog.at_level("WARNING"):
            assert resolve_shards() == 1
        assert any("non-integer" in r.message for r in caplog.records)

    def test_floor_is_one(self):
        assert resolve_shards(0) == 1
        assert resolve_shards(-3) == 1


class TestManifests:
    def _good(self, total=3, stage="rov.validate"):
        return [shard_manifest(stage, i, total, rows=10) for i in range(total)]

    def test_clean_set_passes(self):
        assert check_shard_manifests(self._good(), "rov.validate", 3) == []

    def test_schema_skew_rejected(self):
        manifests = self._good()
        manifests[1]["schema"] = SHARD_SCHEMA_VERSION + 1
        problems = check_shard_manifests(manifests, "rov.validate", 3)
        assert any("schema skew" in p for p in problems)

    def test_wrong_stage_rejected(self):
        problems = check_shard_manifests(self._good(), "irr.validate", 3)
        assert problems

    def test_wrong_arity_rejected(self):
        problems = check_shard_manifests(self._good(total=2), "rov.validate", 3)
        assert any("expected 3 shards" in p for p in problems)

    def test_out_of_order_rejected(self):
        manifests = self._good()
        manifests[0], manifests[2] = manifests[2], manifests[0]
        problems = check_shard_manifests(manifests, "rov.validate", 3)
        assert any("out of order" in p for p in problems)

    def test_non_mapping_rejected(self):
        manifests = self._good()
        manifests[1] = None
        problems = check_shard_manifests(manifests, "rov.validate", 3)
        assert any("not a mapping" in p for p in problems)


def _announcements_of(world):
    return [
        (Announcement(prefix=prefix, origin=group.origin), group.route_class)
        for group in world.rib.groups
        for prefix in group.prefixes
    ]


def _in_process_pool(calls=None, skew=False):
    """A ``pool_map_consume`` stand-in that runs the initializer and the
    tasks in this process, recording ``(tasks, manifests)`` per call;
    ``skew`` stamps every manifest with a stale schema."""

    def run(fn, tasks, workers, consume, initializer=None, initargs=()):
        manifests = []
        if calls is not None:
            calls.append((list(tasks), manifests))
        if initializer is not None:
            initializer(*initargs)
        for task in tasks:
            manifest, payload = fn(task)
            if skew:
                manifest["schema"] = SHARD_SCHEMA_VERSION + 99
            manifests.append(manifest)
            consume((manifest, payload))
        return True

    return run


def _ihr_of(world, **kwargs):
    return build_ihr_dataset(
        world.rib, world.rov, world.irr, world.topology, **kwargs
    )


def _assert_partition(tasks, count):
    """Task ranges are non-empty, contiguous and cover ``range(count)``."""
    assert [task[:2] for task in tasks] == [
        (index, len(tasks)) for index in range(len(tasks))
    ]
    position = 0
    for _, _, start, stop in tasks:
        assert start == position and stop > start
        position = stop
    assert position == count


class TestShardedStagesMatchSerial:
    """Each sharded stage, run for real on a process pool, must equal
    its serial twin exactly — values *and* iteration order."""

    def test_collect_rib_sharded_equals_serial(self, small_world):
        announcements = _announcements_of(small_world)
        vantage_points = small_world.rib.vantage_points
        serial = collect_rib(
            small_world.engine, announcements, vantage_points
        )
        sharded = collect_rib(
            small_world.engine, announcements, vantage_points, jobs=2, shards=3
        )
        assert len(sharded.groups) == len(serial.groups)
        for got, want in zip(sharded.groups, serial.groups):
            assert got == want
            # dict insertion order is part of the digest surface
            assert list(got.paths) == list(want.paths)

    def test_schema_skew_falls_back_serial(self, small_world, monkeypatch, caplog):
        # Simulate a worker/driver version skew: workers emit manifests
        # with a stale schema.  The driver must warn, discard the whole
        # sharded attempt and still return correct serial results.
        announcements = _announcements_of(small_world)
        vantage_points = small_world.rib.vantage_points
        monkeypatch.setattr(
            collector_module, "pool_map_consume", _in_process_pool(skew=True)
        )
        before = obs.counters().get("shard.discarded", 0)
        serial = collect_rib(small_world.engine, announcements, vantage_points)
        with caplog.at_level("WARNING"):
            sharded = collect_rib(
                small_world.engine,
                announcements,
                vantage_points,
                jobs=2,
                shards=3,
            )
        assert sharded.groups == serial.groups
        assert [list(g.paths) for g in sharded.groups] == [
            list(g.paths) for g in serial.groups
        ]
        assert obs.counters().get("shard.discarded", 0) == before + 1
        assert any(
            "discarding sharded collection" in r.message for r in caplog.records
        )

    def test_hegemony_schema_skew_falls_back_serial(
        self, small_world, monkeypatch, caplog
    ):
        monkeypatch.setattr(
            ihr_pipeline, "pool_map_consume", _in_process_pool(skew=True)
        )
        before = obs.counters().get("shard.discarded", 0)
        serial = _ihr_of(small_world, shards=1)
        with caplog.at_level("WARNING"):
            sharded = _ihr_of(small_world, shards=3, jobs=2)
        assert sharded.transit_groups == serial.transit_groups
        assert sharded.prefix_origins == serial.prefix_origins
        assert obs.counters().get("shard.discarded", 0) == before + 1
        assert any(
            "discarding sharded transit scoring" in r.message
            for r in caplog.records
        )


class TestShardWorkShape:
    """A sharded stage does the serial stage's work once: its tasks
    partition the work, name only index ranges, and one build maps one
    pool per sharded stage.  No timing is asserted."""

    def test_collect_tasks_partition_keys_and_rows(self, small_world, monkeypatch):
        announcements = _announcements_of(small_world)
        vantage_points = small_world.rib.vantage_points
        before = obs.counters().get("collect.routes_propagated", 0)
        serial = collect_rib(small_world.engine, announcements, vantage_points)
        serial_rows = obs.counters()["collect.routes_propagated"] - before
        calls = []
        monkeypatch.setattr(
            collector_module, "pool_map_consume", _in_process_pool(calls)
        )
        sharded = collect_rib(
            small_world.engine, announcements, vantage_points, jobs=2, shards=3
        )
        assert sharded.groups == serial.groups
        [(tasks, manifests)] = calls
        assert len(tasks) == 3
        _assert_partition(tasks, len(serial.groups))
        assert sum(manifest["rows"] for manifest in manifests) == serial_rows
        assert all(len(pickle.dumps(task)) < 256 for task in tasks)

    def test_hegemony_tasks_name_only_ranges(self, small_world, monkeypatch):
        calls = []
        monkeypatch.setattr(
            ihr_pipeline, "pool_map_consume", _in_process_pool(calls)
        )
        sharded = _ihr_of(small_world, shards=3, jobs=2)
        assert sharded.transit_groups == _ihr_of(small_world).transit_groups
        [(tasks, _)] = calls
        visible = sum(1 for group in small_world.rib.groups if group.paths)
        _assert_partition(tasks, visible)
        assert all(len(pickle.dumps(task)) < 256 for task in tasks)

    def test_sharded_build_maps_one_pool_per_sharded_stage(self):
        before = obs.counters().get("shard.pool_maps", 0)
        build_world(scale=0.05, seed=3, shards=2, jobs=2)
        # collect_rib and hegemony; classification never starts a pool.
        assert obs.counters().get("shard.pool_maps", 0) - before == 2

    def test_sharded_build_counts_worker_work(self):
        # Counters a shard worker adds reach the driver, so a sharded
        # build reports the propagation work the serial build does.
        def cache_misses(jobs, shards):
            before = obs.counters().get("propagation.cache_misses", 0)
            _build_world(0.05, 3, None, None, None, jobs, shards)
            return obs.counters().get("propagation.cache_misses", 0) - before

        serial = cache_misses(1, 1)
        assert serial > 0
        assert cache_misses(2, 2) == serial

    def test_sharded_build_counts_hegemony_partitions(self):
        # Each transit shard flattens its range as one partition, so a
        # two-shard build reports at least two.
        before = obs.counters().get("hegemony.partitions", 0)
        _build_world(0.05, 3, None, None, None, 2, 2)
        assert obs.counters().get("hegemony.partitions", 0) - before >= 2


def _reference_concat(blocks):
    """The in-memory concatenation the accumulator must reproduce."""
    names: list[str] = []
    for block in blocks:
        for name in block:
            if name not in names:
                names.append(name)
    return {
        name: np.concatenate(
            [block[name] for block in blocks if name in block]
        )
        if any(name in block for block in blocks)
        else np.empty(0)
        for name in names
    }


@st.composite
def _column_blocks(draw):
    """1-5 blocks over a shared column schema (consistent dtype per
    column, independent lengths — mirroring real shard payloads where
    offset and value columns differ in length)."""
    dtypes = draw(
        st.lists(
            st.sampled_from(["int8", "uint32", "int64", "float64"]),
            min_size=1,
            max_size=3,
        )
    )
    names = [f"col{i}" for i in range(len(dtypes))]
    blocks = []
    for _ in range(draw(st.integers(min_value=1, max_value=5))):
        block = {}
        for name, dtype in zip(names, dtypes):
            length = draw(st.integers(min_value=0, max_value=24))
            values = draw(
                st.lists(
                    st.integers(min_value=0, max_value=120),
                    min_size=length,
                    max_size=length,
                )
            )
            block[name] = np.asarray(values, dtype=dtype)
        blocks.append(block)
    return blocks


class TestColumnAccumulator:
    """Spill-then-concat must equal in-memory concat, bit for bit, and a
    corrupted scratch file must be discarded — never stitched."""

    @given(blocks=_column_blocks(), budget=st.integers(0, 64))
    @settings(max_examples=80, deadline=None)
    def test_spill_concat_equals_memory_concat(self, blocks, budget):
        expected = _reference_concat(blocks)
        with ColumnAccumulator("test.stage", budget_bytes=budget) as acc:
            for block in blocks:
                acc.append(block)
            merged = acc.concat()
        assert set(merged) == set(expected)
        for name, array in expected.items():
            assert merged[name].dtype == array.dtype
            np.testing.assert_array_equal(merged[name], array)

    @given(blocks=_column_blocks())
    @settings(max_examples=40, deadline=None)
    def test_unbudgeted_never_spills(self, blocks):
        with ColumnAccumulator("test.stage") as acc:
            for block in blocks:
                acc.append(block)
            assert not acc.spilled
            merged = acc.concat()
        expected = _reference_concat(blocks)
        for name, array in expected.items():
            np.testing.assert_array_equal(merged[name], array)

    def test_blocks_read_back_one_at_a_time(self):
        payloads = [
            {"x": np.arange(start, start + 10, dtype=np.int64)}
            for start in (0, 10, 20)
        ]
        with ColumnAccumulator("test.stage", budget_bytes=0) as acc:
            for payload in payloads:
                acc.append(payload)
            assert acc.spilled
            assert acc.block_count == 3
            for index, payload in enumerate(payloads):
                np.testing.assert_array_equal(
                    acc.block(index)["x"], payload["x"]
                )

    def test_spill_counters_fire(self):
        before = obs.counters().get("build.spill.blocks", 0)
        files_before = obs.counters().get("build.spill.files", 0)
        with ColumnAccumulator("test.stage", budget_bytes=0) as acc:
            acc.append({"x": np.arange(64, dtype=np.int64)})
        assert obs.counters().get("build.spill.blocks", 0) == before + 1
        assert obs.counters().get("build.spill.files", 0) == files_before + 1

    def test_object_dtype_rejected(self):
        with ColumnAccumulator("test.stage") as acc:
            with pytest.raises(ValueError, match="object dtype"):
                acc.append({"x": np.asarray([object()])})

    def test_mixed_dtype_column_rejected(self):
        with ColumnAccumulator("test.stage") as acc:
            acc.append({"x": np.arange(4, dtype=np.int64)})
            acc.append({"x": np.arange(4, dtype=np.int32)})
            with pytest.raises(ValueError, match="mixes dtypes"):
                acc.concat()

    def test_truncated_scratch_discards_and_recovers(self, tmp_path):
        payloads = [
            {"x": np.arange(100, dtype=np.int64)},
            {"x": np.arange(100, 200, dtype=np.int64)},
        ]
        acc = ColumnAccumulator(
            "test.stage", budget_bytes=0, scratch_dir=str(tmp_path)
        )
        for payload in payloads:
            acc.append(payload)
        assert acc.spilled
        scratch = acc._path
        assert scratch is not None
        # Truncate the scratch file behind the accumulator's back (a
        # full /tmp, an eager cleaner): read-back must refuse to stitch.
        with open(scratch, "r+b") as handle:
            handle.truncate(8)
        before = obs.counters().get("build.spill.corrupt", 0)
        with pytest.raises(SpillError):
            acc.concat()
        assert obs.counters().get("build.spill.corrupt", 0) == before + 1
        # The scratch file is discarded, not patched...
        assert acc._path is None
        assert not Path(scratch).exists()
        # ...and the caller-level fallback — re-accumulating without a
        # budget — still produces the correct concatenation.
        with ColumnAccumulator("test.stage") as fallback:
            for payload in payloads:
                fallback.append(payload)
            merged = fallback.concat()
        np.testing.assert_array_equal(
            merged["x"], np.arange(200, dtype=np.int64)
        )

    def test_closed_accumulator_rejects_appends(self):
        acc = ColumnAccumulator("test.stage")
        acc.close()
        with pytest.raises(SpillError, match="closed"):
            acc.append({"x": np.arange(4)})

    def test_close_removes_scratch_file(self, tmp_path):
        acc = ColumnAccumulator(
            "test.stage", budget_bytes=0, scratch_dir=str(tmp_path)
        )
        acc.append({"x": np.arange(64, dtype=np.int64)})
        scratch = acc._path
        assert scratch is not None and Path(scratch).exists()
        acc.close()
        assert not Path(scratch).exists()
