"""Grouped-reduction kernels: AS-Hegemony over flat path columns.

The IHR pipeline scores every route group's transit ASes over its
vantage-point paths.  The reference implementation (the test oracle in
``tests/oracle.py``) walks each group's path tuples three times
(prepending strip, appearance counting, customer learning); this kernel
takes *all* groups' paths as one flat int column plus offsets and
reduces them with one sort pass and ``reduceat`` segment reductions.

Byte-identity with the reference requires reproducing not just the
scores but the **emission order** of each group's transits dict — world
digests serialise it in insertion order.  The reference inserts an AS
when first encountered scanning paths in order; within a stripped path
of length 3 or 4 the scan order is the position order, but longer paths
count their interior through ``set(stripped[1:-1])``, whose iteration
order is a CPython hash-table artefact.  The kernel orders by packed
``(introducing path, within-path position)`` min-keys — which already
settles every pair of ASes introduced by *different* paths — and then
repairs only the rows whose introducing path is a shared length>=5
path with an exact Python ``set`` pass over just those paths.
"""

from __future__ import annotations

import numpy as np

__all__ = ["hegemony_transits"]

_ASN_BITS = np.uint64(32)
_ASN_MASK = np.uint64(0xFFFFFFFF)
#: Intro keys pack (global path index, within-path rank).  Path ranks are
#: bounded by the path length; model paths are far below 2**16 hops.
_RANK_BITS = 16


def hegemony_transits(
    flat: np.ndarray,
    offsets: np.ndarray,
    group_of_path: np.ndarray,
    paths_per_group: np.ndarray,
    trim: float,
    customer_edges: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Score every group's transit ASes in one columnar reduction.

    ``flat`` concatenates all paths (viewpoint-first, origin-last,
    possibly prepended); ``offsets`` has one boundary per path plus the
    total; ``group_of_path`` maps each path to its group index (paths of
    one group must be contiguous and in the group's viewpoint order);
    ``paths_per_group`` is each group's viewpoint-path count;
    ``customer_edges`` is a sorted uint64 column of packed
    ``(asn << 32) | customer`` provider-customer edges.

    Returns ``(group_ids, asns, scores, from_customer)`` rows holding
    exactly the entries, values and per-group order of the reference
    per-group ``hegemony_scores`` + customer-learning loop.
    """
    if not 0 <= trim < 0.5:
        raise ValueError(f"trim must be in [0, 0.5), got {trim}")
    empty = (
        np.empty(0, dtype=np.int64),
        np.empty(0, dtype=np.int64),
        np.empty(0, dtype=np.float64),
        np.zeros(0, dtype=bool),
    )
    if not len(flat):
        return empty

    # Prepending strip: keep each path's first node and every node that
    # differs from its predecessor (exactly ``strip_prepending``).
    keep = np.empty(len(flat), dtype=bool)
    keep[0] = True
    keep[1:] = flat[1:] != flat[:-1]
    keep[offsets[:-1]] = True
    csum = np.concatenate(([0], np.cumsum(keep)))
    s_offsets = csum[offsets]
    s_flat = flat[keep]
    s_lens = np.diff(s_offsets)

    # Interior positions: everything but each path's viewpoint and
    # origin ends (paths of stripped length <= 2 contribute nothing).
    interior = np.ones(len(s_flat), dtype=bool)
    interior[s_offsets[:-1]] = False
    interior[s_offsets[1:] - 1] = False
    interior_pos = np.flatnonzero(interior)
    if not len(interior_pos):
        return empty

    path_of = np.repeat(np.arange(len(s_lens), dtype=np.int64), s_lens)
    occ_path = path_of[interior_pos]
    occ_asn = s_flat[interior_pos]
    occ_intro = (occ_path << _RANK_BITS) | (
        interior_pos - s_offsets[occ_path] - 1
    )

    # One sort by (group, AS); every per-transit aggregate is a segment
    # reduction over the runs.  The reference counts an AS once per
    # path, so the count is the number of *distinct* paths in a run
    # (stable sort keeps occurrences path-ordered within each run).
    group_key = (
        group_of_path[occ_path].astype(np.uint64) << _ASN_BITS
    ) | occ_asn.astype(np.uint64)
    order = np.argsort(group_key, kind="stable")
    sorted_keys = group_key[order]
    new_run = np.empty(len(sorted_keys), dtype=bool)
    new_run[0] = True
    new_run[1:] = sorted_keys[1:] != sorted_keys[:-1]
    starts = np.flatnonzero(new_run)
    sorted_paths = occ_path[order]
    new_path = np.empty(len(sorted_paths), dtype=bool)
    new_path[0] = True
    new_path[1:] = sorted_paths[1:] != sorted_paths[:-1]
    new_path |= new_run
    counts = np.add.reduceat(new_path.astype(np.int64), starts)
    intro = np.minimum.reduceat(occ_intro[order], starts)
    occ = np.minimum.reduceat(interior_pos[order], starts)
    group_ids = (sorted_keys[starts] >> _ASN_BITS).astype(np.int64)
    asns = (sorted_keys[starts] & _ASN_MASK).astype(np.int64)

    # Trimmed-mean scores (reference arithmetic, float64 throughout).
    n_paths = paths_per_group[group_ids]
    cut = np.floor(n_paths * trim).astype(np.int64)
    kept = n_paths - 2 * cut
    ones_kept = np.clip(counts - cut, 0, kept)
    positive = ones_kept > 0
    scores = ones_kept[positive] / kept[positive]

    # Learned-from-customer: the node after the transit (toward the
    # origin) at any occurrence — the propagation engine gives each AS a
    # single selected route, so the flag is occurrence-independent.
    next_nodes = s_flat[occ[positive] + 1]
    edge_keys = (
        asns[positive].astype(np.uint64) << _ASN_BITS
    ) | next_nodes.astype(np.uint64)
    if len(customer_edges):
        pos = np.searchsorted(customer_edges, edge_keys)
        safe = np.minimum(pos, len(customer_edges) - 1)
        from_customer = customer_edges[safe] == edge_keys
    else:
        from_customer = np.zeros(len(edge_keys), dtype=bool)

    group_ids = group_ids[positive]
    asns = asns[positive]
    intro = intro[positive]
    _repair_set_order(intro, asns, s_flat, s_offsets, s_lens)
    emit = np.lexsort((intro, group_ids))
    return group_ids[emit], asns[emit], scores[emit], from_customer[emit]


def _repair_set_order(
    intro: np.ndarray,
    asns: np.ndarray,
    s_flat: np.ndarray,
    s_offsets: np.ndarray,
    s_lens: np.ndarray,
) -> None:
    """Replace positional ranks with set-iteration ranks where they matter.

    The relative emission order of two ASes differs from their packed
    intro keys only when both were introduced by the *same* stripped
    path of length >= 5 (shorter paths iterate in position order).
    Those shared paths get the reference's exact ``set`` iteration pass;
    ``intro`` is patched in place.
    """
    intro_path = intro >> _RANK_BITS
    uniq, uniq_counts = np.unique(intro_path, return_counts=True)
    shared = uniq[(uniq_counts >= 2) & (s_lens[uniq] >= 5)]
    if not len(shared):
        return
    rows = np.flatnonzero(np.isin(intro_path, shared))
    rows = rows[np.argsort(intro_path[rows], kind="stable")]
    nodes = s_flat.tolist()
    row_list = rows.tolist()
    asn_list = asns[rows].tolist()
    path_list = intro_path[rows].tolist()
    current_path = -1
    ranks: dict[int, int] = {}
    for row, asn, path in zip(row_list, asn_list, path_list):
        if path != current_path:
            start = int(s_offsets[path])
            end = start + int(s_lens[path])
            ranks = {
                node: r
                for r, node in enumerate(set(nodes[start + 1 : end - 1]))
            }
            current_path = path
        intro[row] = (path << _RANK_BITS) | ranks[asn]
