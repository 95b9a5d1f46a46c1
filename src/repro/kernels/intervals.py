"""Interval kernels: bulk prefix-coverage lookups via ``searchsorted``.

RPKI route origin validation and IRR route-object matching share one
primitive: given a route ``(prefix, origin)``, find whether any
*covering* registered entry exists, whether one matches the origin, and
whether one authorises the announced prefix length.  The radix trie
answers that one route at a time in O(prefix length); these kernels
answer it for whole integer prefix columns at once.

The trick is that a prefix of length ``L`` covers a query iff the
query's top ``L`` address bits equal the entry's — so per registered
length ``L`` the entries reduce to a sorted array of ``L``-bit keys, and
covering containment over a column of queries becomes one
``np.searchsorted`` per populated length (at most 32 for IPv4).  Origin
matching packs ``(key, asn)`` into one ``uint64`` and aggregates the
maximum authorised length per pair, so the RFC 6811 verdict falls out of
three boolean columns.

IPv6 values exceed 64 bits; v6 entries use per-length Python dict
lookups instead (v6 populations in the model are small).  Verdicts are
exactly those of the per-route ``_classify`` functions in
:mod:`repro.rpki.rov` and :mod:`repro.irr.validation` over the covering
objects (the test oracle in ``tests/oracle.py``).
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.net.prefix import Prefix

__all__ = [
    "NOT_FOUND",
    "VALID",
    "INVALID_LENGTH",
    "INVALID_ORIGIN",
    "RouteIntervalIndex",
    "union_address_count",
]

#: Verdict codes shared by the RPKI and IRR classifications.  The two
#: "invalid" flavours map to ``INVALID_ASN``/``INVALID_ORIGIN`` in the
#: respective status enums.
NOT_FOUND = 0
VALID = 1
INVALID_LENGTH = 2
INVALID_ORIGIN = 3

_V4_BITS = 32
_V6_BITS = 128


class _V4Bucket:
    """All v4 entries of one prefix length, in searchsorted form."""

    __slots__ = ("length", "keys", "packed", "packed_maxlen")

    def __init__(
        self,
        length: int,
        keys: np.ndarray,
        packed: np.ndarray,
        packed_maxlen: np.ndarray,
    ):
        self.length = length
        #: Sorted unique top-``length``-bit keys (coverage test).
        self.keys = keys
        #: Sorted unique ``(key << 32) | asn`` pairs (origin-match test).
        self.packed = packed
        #: Max authorised length per ``packed`` entry (VALID test).
        self.packed_maxlen = packed_maxlen


class _V6Bucket:
    """All v6 entries of one prefix length (dict form: 128-bit keys)."""

    __slots__ = ("length", "keys", "maxlen_by_origin")

    def __init__(self, length: int):
        self.length = length
        self.keys: set[int] = set()
        #: ``(key, asn) -> max authorised length``.
        self.maxlen_by_origin: dict[tuple[int, int], int] = {}


class RouteIntervalIndex:
    """A frozen registry snapshot indexed for bulk classification.

    ``rows`` are ``(prefix, asn, max_length)`` triples — one per VRP or
    route object.  For the IRR, ``max_length`` is the object's own
    prefix length, which makes the paper's IRR procedure (§6.1) the
    exact RFC 6811 verdict function: a covering entry with matching
    origin is VALID iff the announcement is no more specific than
    ``max_length`` allows.

    ``zero_asn_matches=False`` reproduces ROV's AS0 rule: entries with
    ASN 0 still provide *coverage* but can never origin-match.
    """

    def __init__(
        self,
        rows: Iterable[tuple[Prefix, int, int]],
        zero_asn_matches: bool = False,
    ):
        v4_vals: list[int] = []
        v4_lens: list[int] = []
        v4_asns: list[int] = []
        v4_maxs: list[int] = []
        v6_buckets: dict[int, _V6Bucket] = {}
        for prefix, asn, max_length in rows:
            if prefix.version == 4:
                v4_vals.append(prefix.value)
                v4_lens.append(prefix.length)
                v4_asns.append(asn)
                v4_maxs.append(max_length)
            else:
                bucket = v6_buckets.get(prefix.length)
                if bucket is None:
                    bucket = _V6Bucket(prefix.length)
                    v6_buckets[prefix.length] = bucket
                key = prefix.value >> (_V6_BITS - prefix.length)
                bucket.keys.add(key)
                if asn != 0 or zero_asn_matches:
                    pair = (key, asn)
                    known = bucket.maxlen_by_origin.get(pair)
                    if known is None or max_length > known:
                        bucket.maxlen_by_origin[pair] = max_length
        self._v4_buckets = _build_v4_buckets(
            v4_vals, v4_lens, v4_asns, v4_maxs, zero_asn_matches
        )
        self._v6_buckets = sorted(v6_buckets.values(), key=lambda b: b.length)

    # -- bulk classification ----------------------------------------------

    def classify_v4(
        self,
        values: np.ndarray,
        lengths: np.ndarray,
        origins: np.ndarray,
    ) -> np.ndarray:
        """Verdict codes for columns of v4 routes.

        ``values``/``origins`` are uint64, ``lengths`` int64; returns an
        int8 column of the module-level verdict codes.
        """
        n = len(values)
        covered = np.zeros(n, dtype=bool)
        matched = np.zeros(n, dtype=bool)
        valid = np.zeros(n, dtype=bool)
        for bucket in self._v4_buckets:
            mask = lengths >= bucket.length
            if not mask.any():
                continue
            keys = values[mask] >> np.uint64(_V4_BITS - bucket.length)
            covered[mask] |= _sorted_contains(bucket.keys, keys)
            if len(bucket.packed):
                pk = (keys << np.uint64(_V4_BITS)) | origins[mask]
                pos = np.searchsorted(bucket.packed, pk)
                pos_safe = np.minimum(pos, len(bucket.packed) - 1)
                hit = bucket.packed[pos_safe] == pk
                matched[mask] |= hit
                ok = hit & (bucket.packed_maxlen[pos_safe] >= lengths[mask])
                valid[mask] |= ok
        codes = np.full(n, NOT_FOUND, dtype=np.int8)
        codes[covered] = INVALID_ORIGIN
        codes[matched] = INVALID_LENGTH
        codes[valid] = VALID
        return codes

    def classify_one_v6(self, prefix: Prefix, origin: int) -> int:
        """Verdict code for a single v6 route (dict-backed)."""
        covered = matched = False
        value, qlen = prefix.value, prefix.length
        for bucket in self._v6_buckets:
            if bucket.length > qlen:
                break
            key = value >> (_V6_BITS - bucket.length)
            if key not in bucket.keys:
                continue
            covered = True
            max_length = bucket.maxlen_by_origin.get((key, origin))
            if max_length is not None:
                matched = True
                if qlen <= max_length:
                    return VALID
        if matched:
            return INVALID_LENGTH
        return INVALID_ORIGIN if covered else NOT_FOUND

    def classify_routes(
        self, routes: Sequence[tuple[Prefix, int]]
    ) -> np.ndarray:
        """Verdict codes aligned with ``routes`` (mixed v4/v6)."""
        codes = np.empty(len(routes), dtype=np.int8)
        v4_pos: list[int] = []
        v4_vals: list[int] = []
        v4_lens: list[int] = []
        v4_origins: list[int] = []
        for i, (prefix, origin) in enumerate(routes):
            if prefix.version == 4:
                v4_pos.append(i)
                v4_vals.append(prefix.value)
                v4_lens.append(prefix.length)
                v4_origins.append(origin)
            else:
                codes[i] = self.classify_one_v6(prefix, origin)
        if v4_pos:
            v4_codes = self.classify_v4(
                np.array(v4_vals, dtype=np.uint64),
                np.array(v4_lens, dtype=np.int64),
                np.array(v4_origins, dtype=np.uint64),
            )
            codes[np.array(v4_pos, dtype=np.int64)] = v4_codes
        return codes

    # -- bulk coverage ------------------------------------------------------

    def covers_v4(self, values: np.ndarray, lengths: np.ndarray) -> np.ndarray:
        """Boolean column: does any entry cover each v4 ``(value, length)``?"""
        covered = np.zeros(len(values), dtype=bool)
        for bucket in self._v4_buckets:
            mask = (lengths >= bucket.length) & ~covered
            if not mask.any():
                continue
            keys = values[mask] >> np.uint64(_V4_BITS - bucket.length)
            covered[mask] = _sorted_contains(bucket.keys, keys)
        return covered

    def covers_one_v6(self, prefix: Prefix) -> bool:
        """Does any entry cover this v6 prefix?"""
        value, qlen = prefix.value, prefix.length
        for bucket in self._v6_buckets:
            if bucket.length > qlen:
                break
            if value >> (_V6_BITS - bucket.length) in bucket.keys:
                return True
        return False

    def covers_prefixes(self, prefixes: Sequence[Prefix]) -> np.ndarray:
        """Boolean column aligned with ``prefixes`` (mixed v4/v6)."""
        covered = np.zeros(len(prefixes), dtype=bool)
        v4_pos: list[int] = []
        v4_vals: list[int] = []
        v4_lens: list[int] = []
        for i, prefix in enumerate(prefixes):
            if prefix.version == 4:
                v4_pos.append(i)
                v4_vals.append(prefix.value)
                v4_lens.append(prefix.length)
            else:
                covered[i] = self.covers_one_v6(prefix)
        if v4_pos:
            covered[np.array(v4_pos, dtype=np.int64)] = self.covers_v4(
                np.array(v4_vals, dtype=np.uint64),
                np.array(v4_lens, dtype=np.int64),
            )
        return covered


def _build_v4_buckets(
    vals: list[int],
    lens: list[int],
    asns: list[int],
    maxs: list[int],
    zero_asn_matches: bool,
) -> list[_V4Bucket]:
    if not vals:
        return []
    values = np.array(vals, dtype=np.uint64)
    lengths = np.array(lens, dtype=np.int64)
    origins = np.array(asns, dtype=np.uint64)
    maxlens = np.array(maxs, dtype=np.int64)
    buckets: list[_V4Bucket] = []
    for length in np.unique(lengths):
        mask = lengths == length
        keys = values[mask] >> np.uint64(_V4_BITS - length)
        bucket_asns = origins[mask]
        bucket_maxlens = maxlens[mask]
        if not zero_asn_matches:
            nonzero = bucket_asns != 0
            packed_keys = keys[nonzero]
            bucket_asns = bucket_asns[nonzero]
            bucket_maxlens = bucket_maxlens[nonzero]
        else:
            packed_keys = keys
        packed = (packed_keys << np.uint64(_V4_BITS)) | bucket_asns
        if len(packed):
            order = np.argsort(packed, kind="stable")
            packed = packed[order]
            bucket_maxlens = bucket_maxlens[order]
            starts = np.flatnonzero(
                np.concatenate(([True], packed[1:] != packed[:-1]))
            )
            packed = packed[starts]
            packed_maxlen = np.maximum.reduceat(bucket_maxlens, starts)
        else:
            packed_maxlen = bucket_maxlens
        buckets.append(
            _V4Bucket(int(length), np.unique(keys), packed, packed_maxlen)
        )
    return buckets


def _sorted_contains(haystack: np.ndarray, needles: np.ndarray) -> np.ndarray:
    """Membership of ``needles`` in the sorted unique ``haystack``."""
    if not len(haystack):
        return np.zeros(len(needles), dtype=bool)
    pos = np.searchsorted(haystack, needles)
    return haystack[np.minimum(pos, len(haystack) - 1)] == needles


def union_address_count(firsts: np.ndarray, lasts: np.ndarray) -> int:
    """Distinct addresses covered by intervals sorted by (first, length).

    Vector form of the sweep in
    :func:`repro.net.prefix.aggregate_address_count`: a running maximum
    of interval ends replaces the scalar ``covered_until`` cursor, and
    each interval contributes the part past everything before it.
    """
    if not len(firsts):
        return 0
    reach = np.maximum.accumulate(lasts)
    covered_until = np.empty_like(reach)
    covered_until[0] = -1
    covered_until[1:] = reach[:-1]
    contributions = lasts - np.maximum(firsts, covered_until + 1) + 1
    return int(contributions.clip(min=0).sum())
