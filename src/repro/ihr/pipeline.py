"""The IHR pipeline: collector RIBs + registries → analysis datasets.

This reimplements the derivation the Internet Health Report performs
(§5.3): classify every routed (prefix, origin) against the RPKI (RFC 6811)
and the IRR, compute AS-Hegemony scores for the transit ASes on paths
toward it, and emit the prefix-origin and transit datasets the paper's
conformance and impact analyses consume.

The construction batches its lookups: all (prefix, origin) pairs are
classified up front through the bulk/memoised validator paths (one
interval-index probe per batch instead of one trie walk per record), and
each group's vantage-point paths are flattened once into columns shared
between the hegemony and learned-from-customer reductions.
"""

from __future__ import annotations

import logging
from itertools import chain

import numpy as np

from repro import config as _config
from repro import obs
from repro.bgp.collector import RibSnapshot, RouteGroup
from repro.config import RuntimeConfig
from repro.hegemony.scores import DEFAULT_TRIM
from repro.kernels.groupby import hegemony_transits
from repro.ihr.records import (
    IHRDataset,
    PrefixOriginRecord,
    TransitGroup,
    TransitInfo,
)
from repro.irr.database import IRRCollection, IRRDatabase
from repro.irr.validation import validate_irr_many
from repro.rpki.rov import ROVValidator
from repro.shard import (
    check_shard_manifests,
    pool_map_consume,
    range_tasks,
    resolve_build_budget,
    resolve_shards,
    shard_manifest,
)
from repro.topology.model import ASTopology

__all__ = ["build_ihr_dataset", "transit_groups_indexed"]

log = logging.getLogger(__name__)

#: Below this many visible route groups a pool cannot pay for itself;
#: transit scoring stays in-process.
MIN_SHARD_GROUPS = 64

#: Flat-path working-set bound (bytes) for one in-process hegemony
#: partition when no ``REPRO_BUILD_BUDGET_MB`` is configured.  Per-group
#: scores depend only on that group's paths, so partitioning the flat
#: reduction is an identity transform — it just caps how much of the
#: RIB's path table is ever flattened into int64 columns at once.
DEFAULT_HEGEMONY_PARTITION_BYTES = 64 * 1024 * 1024


def build_ihr_dataset(
    snapshot: RibSnapshot,
    rov: ROVValidator,
    irr: IRRCollection | IRRDatabase,
    topology: ASTopology,
    trim: float = DEFAULT_TRIM,
    shards: int | None = None,
    jobs: int | None = None,
    runtime: RuntimeConfig | None = None,
) -> IHRDataset:
    """Build both IHR tables from one collector snapshot.

    Vantage-point paths are identical for every prefix in a
    :class:`~repro.bgp.collector.RouteGroup`, so hegemony and the
    learned-from-customer flags are computed once per group.

    ``shards`` (default: the runtime config / ``REPRO_SHARDS``, else 1)
    fans the transit scoring (by route-group range) across a process
    pool; per-group hegemony is independent of every other group, so
    the sharded dataset is identical.  Route validation always runs the
    in-process bulk kernel.  ``runtime`` installs a
    :class:`repro.config.RuntimeConfig` for the duration of the call.
    """
    if runtime is not None:
        with _config.use(runtime):
            return build_ihr_dataset(
                snapshot, rov, irr, topology, trim=trim, shards=shards, jobs=jobs
            )
    prefix_origins: list[PrefixOriginRecord] = []
    visible = [group for group in snapshot.groups if group.paths]
    shards = resolve_shards(shards)
    with obs.span("ihr.validate"):
        routes = [
            (prefix, group.origin)
            for group in visible
            for prefix in group.prefixes
        ]
        rpki_by_route = rov.validate_many(routes)
        irr_by_route = validate_irr_many(irr, routes)
    with obs.span("ihr.hegemony"):
        group_statuses: list[tuple] = []
        for group in visible:
            statuses = tuple(
                (
                    rpki_by_route[(prefix, group.origin)],
                    irr_by_route[(prefix, group.origin)],
                )
                for prefix in group.prefixes
            )
            group_statuses.append(statuses)
            visibility = len(group.paths)
            for prefix, (rpki_status, irr_status) in zip(
                group.prefixes, statuses
            ):
                prefix_origins.append(
                    PrefixOriginRecord(
                        prefix=prefix,
                        origin=group.origin,
                        rpki=rpki_status,
                        irr=irr_status,
                        visibility=visibility,
                    )
                )
        transit_groups = None
        if shards > 1 and len(visible) >= MIN_SHARD_GROUPS:
            transit_groups = _sharded_transit_groups(
                visible, group_statuses, topology, trim, shards, jobs
            )
        if transit_groups is None:
            transit_groups = _transit_groups(
                visible, group_statuses, topology, trim
            )
    obs.add("ihr.prefix_origins", len(prefix_origins))
    obs.add("ihr.transit_groups", len(transit_groups))
    return IHRDataset(prefix_origins=prefix_origins, transit_groups=transit_groups)


def transit_groups_indexed(
    visible: list[RouteGroup],
    group_statuses: list[tuple],
    topology: ASTopology,
    trim: float = DEFAULT_TRIM,
) -> list[tuple[int, TransitGroup]]:
    """``(index, TransitGroup)`` pairs for groups with transit scores.

    Per-group outputs are identical to :func:`build_ihr_dataset`'s, but
    each surviving group is tagged with its index into ``visible`` so an
    incremental caller (:mod:`repro.delta`) can score a sparse subset of
    groups and splice the results between cached ones.
    """
    if not visible:
        return []
    columns = _hegemony_columns(visible, topology, trim)
    groups = _groups_from_columns(visible, group_statuses, columns)
    group_ids = columns[0]
    if not len(group_ids):
        return []
    bounds = np.flatnonzero(
        np.concatenate(([True], group_ids[1:] != group_ids[:-1]))
    )
    return list(zip(group_ids[bounds].tolist(), groups))


def _hegemony_columns(
    visible: list[RouteGroup], topology: ASTopology, trim: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The flat hegemony reduction as columns (group id, ASN, score, flag).

    Rows come out grouped by ascending group index; each group's rows
    depend only on that group's paths, which is what makes group-chunk
    sharding an identity transform.
    """
    all_paths: list[tuple[int, ...]] = []
    counts: list[int] = []
    for group in visible:
        paths = group.paths
        all_paths.extend(paths.values())
        counts.append(len(paths))
    lens = np.fromiter(map(len, all_paths), dtype=np.int64, count=len(all_paths))
    offsets = np.concatenate((np.zeros(1, dtype=np.int64), np.cumsum(lens)))
    flat = np.fromiter(
        chain.from_iterable(all_paths), dtype=np.int64, count=int(offsets[-1])
    )
    paths_per_group = np.array(counts, dtype=np.int64)
    group_of_path = np.repeat(
        np.arange(len(visible), dtype=np.int64), paths_per_group
    )
    edges = topology.csr().customer_edge_keys()
    return hegemony_transits(
        flat,
        offsets,
        group_of_path,
        paths_per_group,
        trim,
        edges,
    )


def _groups_from_columns(
    visible: list[RouteGroup],
    group_statuses: list[tuple],
    columns: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
) -> list[TransitGroup]:
    """Materialise TransitGroups from hegemony columns."""
    group_ids, asns, scores, flags = columns
    transit_groups: list[TransitGroup] = []
    if not len(group_ids):
        return transit_groups
    bounds = np.flatnonzero(
        np.concatenate(([True], group_ids[1:] != group_ids[:-1]))
    )
    ends = np.concatenate((bounds[1:], [len(group_ids)]))
    gi_list = group_ids.tolist()
    asn_list = asns.tolist()
    score_list = scores.tolist()
    flag_list = flags.tolist()
    for begin, end in zip(bounds.tolist(), ends.tolist()):
        group = visible[gi_list[begin]]
        transits = {
            asn_list[row]: TransitInfo(
                hegemony=score_list[row],
                from_customer=flag_list[row],
            )
            for row in range(begin, end)
        }
        transit_groups.append(
            TransitGroup(
                origin=group.origin,
                prefixes=group.prefixes,
                statuses=group_statuses[gi_list[begin]],
                transits=transits,
                visibility=len(group.paths),
            )
        )
    return transit_groups


def _partition_groups(
    visible: list[RouteGroup], budget_bytes: int
) -> list[list[RouteGroup]]:
    """Contiguous partitions of ``visible`` bounded by flat-path bytes.

    A group whose paths alone exceed the budget gets a partition of its
    own — partitions are never empty and their concatenation is
    ``visible``, so the streamed reduction visits every group exactly
    once in the serial order.
    """
    partitions: list[list[RouteGroup]] = []
    current: list[RouteGroup] = []
    current_bytes = 0
    for group in visible:
        group_bytes = 8 * sum(len(path) for path in group.paths.values())
        if current and current_bytes + group_bytes > budget_bytes:
            partitions.append(current)
            current = []
            current_bytes = 0
        current.append(group)
        current_bytes += group_bytes
    if current:
        partitions.append(current)
    return partitions


def _transit_groups(
    visible: list[RouteGroup],
    group_statuses: list[tuple],
    topology: ASTopology,
    trim: float,
) -> list[TransitGroup]:
    """Columnar transit scoring, streamed over route-group partitions.

    Produces the TransitGroups in route-group order, each with its
    transits in first-seen path order (see
    :func:`repro.kernels.groupby.hegemony_transits`).  The flat
    reduction runs one bounded partition at a time: each group's rows
    depend only on its own paths and partitions are contiguous slices,
    so per-partition columns materialise exactly the groups the global
    reduction would — with the flattened int64 working set capped at
    ``REPRO_BUILD_BUDGET_MB`` (default
    :data:`DEFAULT_HEGEMONY_PARTITION_BYTES`).
    """
    budget = resolve_build_budget()
    bound = budget if budget is not None else DEFAULT_HEGEMONY_PARTITION_BYTES
    partitions = _partition_groups(visible, max(1, bound))
    obs.add("hegemony.partitions", len(partitions))
    transit_groups: list[TransitGroup] = []
    start = 0
    for partition in partitions:
        statuses = group_statuses[start : start + len(partition)]
        transit_groups.extend(
            _groups_from_columns(
                partition,
                statuses,
                _hegemony_columns(partition, topology, trim),
            )
        )
        start += len(partition)
    return transit_groups


# Worker-process state for range-sharded transit scoring, installed once
# per worker by the pool initializer (a fork-context pool inherits it:
# tasks carry only their group range).
_shard_topology: ASTopology | None = None
_shard_trim: float = DEFAULT_TRIM
_shard_visible: list[RouteGroup] = []


def _init_ihr_shard_worker(
    topology: ASTopology,
    trim: float,
    visible: list[RouteGroup],
) -> None:
    global _shard_topology, _shard_trim, _shard_visible
    _shard_topology = topology
    _shard_trim = trim
    _shard_visible = visible


def _transit_shard(task: tuple) -> tuple[dict, tuple]:
    """Score one route-group range; emits hegemony column shards.

    Group ids in the emitted columns are range-local — the driver
    materialises each shard's groups directly against its own range.
    The whole range is flattened as one hegemony partition.
    """
    index, total, start, stop = task
    assert _shard_topology is not None
    columns = _hegemony_columns(
        _shard_visible[start:stop], _shard_topology, _shard_trim
    )
    obs.add("hegemony.partitions")
    manifest = shard_manifest("ihr.transit", index, total, len(columns[0]))
    return manifest, columns


def _sharded_transit_groups(
    visible: list[RouteGroup],
    group_statuses: list[tuple],
    topology: ASTopology,
    trim: float,
    shards: int,
    jobs: int | None,
) -> list[TransitGroup] | None:
    """Range-sharded transit scoring; None falls back in-process.

    Ranges are contiguous slices of ``visible`` and every group's rows
    depend only on its own paths, so materialising each shard's groups
    from its range-local columns and extending in ascending shard order
    reproduces the unsharded reduction exactly.
    """
    tasks = range_tasks(len(visible), shards)
    total = len(tasks)
    obs.add("ihr.transit_shards", total)
    manifests: list[dict] = []
    parts: list[list[TransitGroup]] = []

    def consume(result: tuple[dict, tuple]) -> None:
        # Shard columns carry range-local group ids, so each shard's
        # TransitGroups materialise on arrival against its own range —
        # no global column concatenation, at most one shard's columns
        # resident.  Should manifest validation below reject the set,
        # the materialised parts are discarded wholesale (the usual
        # discard-don't-stitch contract), never partially reused.
        manifest, columns = result
        position = len(manifests)
        manifests.append(manifest)
        if position < total:
            _, _, start, stop = tasks[position]
            parts.append(
                _groups_from_columns(
                    visible[start:stop], group_statuses[start:stop], columns
                )
            )

    ok = pool_map_consume(
        _transit_shard,
        tasks,
        workers=obs.resolve_jobs(jobs),
        consume=consume,
        initializer=_init_ihr_shard_worker,
        initargs=(topology, trim, visible),
    )
    if not ok:
        return None
    problems = check_shard_manifests(manifests, "ihr.transit", total)
    if problems:
        log.warning(
            "discarding sharded transit scoring (%s); recomputing unsharded",
            "; ".join(problems),
        )
        obs.add("shard.discarded")
        return None
    transit_groups: list[TransitGroup] = []
    for part in parts:
        transit_groups.extend(part)
    return transit_groups
