"""IRR route validation (§6.1 of the paper).

The paper classifies a BGP route against IRR route objects with the same
procedure as RPKI ROV, treating each route object's own prefix length as
its max-length (the IRR has no maxLength attribute):

* **VALID** — an exact-prefix route object with matching origin exists;
* **INVALID_LENGTH** — a covering route object with matching origin
  exists, but the announcement is more specific than the object
  (the traffic-engineering de-aggregation case §3 treats as conformant);
* **INVALID_ORIGIN** — covering objects exist but none matches the origin
  (the paper's "IRR Invalid");
* **NOT_FOUND** — no covering route object.

Classification is memoised per registry: registries are built once per
snapshot and then queried heavily with repeating (prefix, origin) pairs
(announcement classing, the IHR pipeline, conformance checks), so each
pair's covering-object walk runs once per registry state.  The memo is
stored on the registry object and keyed by its mutation counter, so
adding or removing route objects transparently invalidates it.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterable

from repro import obs
from repro.kernels.intervals import RouteIntervalIndex
from repro.irr.database import IRRCollection, IRRDatabase
from repro.irr.objects import RouteObject
from repro.net.prefix import Prefix

__all__ = ["IRRStatus", "validate_irr", "validate_irr_many"]


class IRRStatus(str, Enum):
    """IRR route classification outcome."""

    VALID = "valid"
    INVALID_ORIGIN = "invalid_origin"
    INVALID_LENGTH = "invalid_length"
    NOT_FOUND = "not_found"

    @property
    def is_invalid_origin(self) -> bool:
        """True only for the origin-mismatch flavour (the one MANRS
        conformance penalises)."""
        return self is IRRStatus.INVALID_ORIGIN


def _classify(
    covering: list[RouteObject], prefix: Prefix, origin: int
) -> IRRStatus:
    """Classification given the covering route objects."""
    if not covering:
        return IRRStatus.NOT_FOUND
    origin_match = False
    for route_object in covering:
        if route_object.origin == origin:
            if route_object.prefix.length == prefix.length:
                return IRRStatus.VALID
            origin_match = True
    return IRRStatus.INVALID_LENGTH if origin_match else IRRStatus.INVALID_ORIGIN


#: Interval-kernel verdict code → IRR status (see kernels.intervals).
_STATUS_BY_CODE = (
    IRRStatus.NOT_FOUND,
    IRRStatus.VALID,
    IRRStatus.INVALID_LENGTH,
    IRRStatus.INVALID_ORIGIN,
)


def _index_of(registry: IRRCollection | IRRDatabase) -> RouteIntervalIndex:
    """The registry's current-state interval index.

    Like the verdict memo, the index is cached in the registry object's
    ``__dict__`` tagged with the mutation counter it was built against.
    A route object's own prefix length serves as its max-length, which
    makes the paper's IRR procedure the exact RFC 6811 verdict function
    (a covering match is VALID only at the registered length).
    """
    version = registry.version
    cached = getattr(registry, "_interval_index", None)
    if cached is not None and cached[0] == version:
        return cached[1]
    if isinstance(registry, IRRCollection):
        databases = registry.databases
    else:
        databases = [registry]
    index = RouteIntervalIndex(
        (
            (route.prefix, route.origin, route.prefix.length)
            for database in databases
            for route in database.iter_route_objects()
        ),
        zero_asn_matches=True,
    )
    obs.add("irr.interval_index_builds")
    registry._interval_index = (version, index)
    return index


def _memo_of(
    registry: IRRCollection | IRRDatabase,
) -> dict[tuple[Prefix, int], IRRStatus]:
    """The registry's current-state verdict memo.

    The memo lives in the registry object's ``__dict__`` tagged with the
    mutation counter it was built against; any mutation since then makes
    it stale and it is replaced with a fresh one.
    """
    version = registry.version
    cached = getattr(registry, "_validation_memo", None)
    if cached is not None and cached[0] == version:
        return cached[1]
    memo: dict[tuple[Prefix, int], IRRStatus] = {}
    registry._validation_memo = (version, memo)
    return memo


def seed_memo(
    registry: IRRCollection | IRRDatabase,
    verdicts: dict[tuple[Prefix, int], IRRStatus],
) -> None:
    """Pre-populate the registry's current-version verdict memo.

    After a registry mutation the version-tagged memo starts empty; a
    caller that knows which routes the mutation *cannot* have affected
    (no added/removed object covers them — see :mod:`repro.delta`) can
    seed their old verdicts instead of re-walking the trie for each.
    """
    _memo_of(registry).update(verdicts)


def validate_irr(
    registry: IRRCollection | IRRDatabase, prefix: Prefix, origin: int
) -> IRRStatus:
    """Classify one route against the registry's route objects."""
    memo = _memo_of(registry)
    key = (prefix, origin)
    status = memo.get(key)
    if status is None:
        status = _classify(registry.routes_covering(prefix), prefix, origin)
        memo[key] = status
    return status


def validate_irr_many(
    registry: IRRCollection | IRRDatabase,
    routes: Iterable[tuple[Prefix, int]],
) -> dict[tuple[Prefix, int], IRRStatus]:
    """Classify a batch of routes with one interval-index probe.

    Equivalent to calling :func:`validate_irr` per route; every
    not-yet-memoised route is classified in one bulk
    :meth:`RouteIntervalIndex.classify_routes` call.  The bulk kernel
    always runs in-process: it is cheaper than any worker pool (DESIGN
    §13).
    """
    routes = set(routes)
    memo = _memo_of(registry)
    results: dict[tuple[Prefix, int], IRRStatus] = {}
    pending: list[tuple[Prefix, int]] = []
    for key in routes:
        status = memo.get(key)
        if status is None:
            pending.append(key)
        else:
            results[key] = status
    if pending:
        codes = _index_of(registry).classify_routes(pending)
        statuses = [_STATUS_BY_CODE[code] for code in codes.tolist()]
        tallies: dict[IRRStatus, int] = {}
        for key, status in zip(pending, statuses):
            memo[key] = status
            results[key] = status
            tallies[status] = tallies.get(status, 0) + 1
        for status, tally in tallies.items():
            obs.add(f"irr.verdict.{status.value}", tally)
    obs.add("irr.memo_hits", len(routes) - len(pending))
    obs.add("irr.memo_misses", len(pending))
    return results

