"""IRR databases and the multi-database collection.

Authoritative databases are run by the RIRs and only accept objects for
address space they administer; non-authoritative databases (like RADB)
accept anything, which is one source of the IRR's accuracy problems
(§2.2, [20]).  :class:`IRRCollection` aggregates several databases the way
RADB's mirror list does — queries search every member database.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.errors import RPSLError
from repro.irr.objects import AsSetObject, AutNumObject, RouteObject
from repro.net.prefix import Prefix
from repro.net.radix import RadixTree
from repro.registry.rir import RIR

__all__ = ["IRRDatabase", "IRRCollection"]


@dataclass
class IRRDatabase:
    """One IRR database (e.g. the RIPE IRR, or RADB)."""

    name: str
    #: Set when this database is the authoritative one for an RIR region.
    authoritative_for: RIR | None = None
    _routes: RadixTree[RouteObject] = field(default_factory=RadixTree)
    _aut_nums: dict[int, AutNumObject] = field(default_factory=dict)
    _as_sets: dict[str, AsSetObject] = field(default_factory=dict)
    #: Bumped on every route mutation; memo owners key their caches on it.
    _version: int = field(default=0, init=False, repr=False, compare=False)
    #: Accepted routes not yet in the trie.  World builds register tens
    #: of thousands of objects and may never walk the trie at all (bulk
    #: classification goes through the interval kernel), so trie entry
    #: is deferred until the first query and then done as one
    #: address-sorted ``insert_sorted`` burst — the stable sort keeps
    #: per-node value order identical to immediate per-route inserts.
    _pending_routes: list[tuple[Prefix, RouteObject]] = field(
        default_factory=list, init=False, repr=False, compare=False
    )

    def add_route(self, route: RouteObject) -> None:
        """Register a route object.

        Authoritative databases enforce that the prefix belongs to their
        RIR's pools; mirrors accept anything (that laxity is load-bearing
        for modelling stale/inaccurate registrations).
        """
        if route.source != self.name:
            raise RPSLError(
                f"route object source {route.source!r} does not match "
                f"database {self.name!r}"
            )
        if self.authoritative_for is not None:
            pools: tuple[Prefix, ...]
            if route.prefix.version == 4:
                pools = self.authoritative_for.v4_pools
            else:
                pools = (self.authoritative_for.v6_pool,)
            if not any(pool.contains(route.prefix) for pool in pools):
                raise RPSLError(
                    f"{route.prefix} is outside {self.authoritative_for.value} "
                    f"space; {self.name} is authoritative"
                )
        self._pending_routes.append((route.prefix, route))
        self._version += 1

    def _flush_routes(self) -> None:
        pending = self._pending_routes
        if pending:
            pending.sort(key=lambda item: item[0])
            from repro import obs

            with obs.gc_paused():
                self._routes.insert_sorted(pending)
            self._pending_routes = []

    def remove_route(self, route: RouteObject) -> bool:
        """Delete a route object; True if it was present."""
        self._flush_routes()
        removed = self._routes.remove(route.prefix, route)
        if removed:
            self._version += 1
        return removed

    def add_aut_num(self, aut_num: AutNumObject) -> None:
        """Register (or replace) the aut-num object for an ASN."""
        self._aut_nums[aut_num.asn] = aut_num

    def add_as_set(self, as_set: AsSetObject) -> None:
        """Register (or replace) an as-set by name."""
        self._as_sets[as_set.name.upper()] = as_set

    def routes_covering(self, prefix: Prefix) -> list[RouteObject]:
        """Route objects whose prefix contains ``prefix``."""
        self._flush_routes()
        return self._routes.covering(prefix)

    @property
    def version(self) -> int:
        """Mutation counter for cache invalidation."""
        return self._version

    def routes_exact(self, prefix: Prefix) -> list[RouteObject]:
        """Route objects registered at exactly ``prefix``."""
        self._flush_routes()
        return self._routes.search_exact(prefix)

    def aut_num(self, asn: int) -> AutNumObject | None:
        """The aut-num object for ``asn`` if registered."""
        return self._aut_nums.get(asn)

    def as_set(self, name: str) -> AsSetObject | None:
        """The as-set object by (case-insensitive) name."""
        return self._as_sets.get(name.upper())

    def all_routes(self) -> list[RouteObject]:
        """Every route object, in address order."""
        self._flush_routes()
        return [route for _, route in self._routes.items()]

    def iter_route_objects(self) -> Iterable[RouteObject]:
        """Every route object in arbitrary order, without forcing the
        pending backlog into the trie (bulk kernels don't need it)."""
        for _, route in self._routes.items():
            yield route
        for _, route in self._pending_routes:
            yield route

    @property
    def route_count(self) -> int:
        """Number of route objects stored."""
        return len(self._routes) + len(self._pending_routes)


class IRRCollection:
    """A set of IRR databases queried together (the operator's view).

    Mirrors the way RADB aggregates: ``routes_covering`` returns matches
    from every member database, with the database order preserved so
    callers can prefer authoritative sources.
    """

    def __init__(self, databases: Iterable[IRRDatabase] = ()):
        self._databases: dict[str, IRRDatabase] = {}
        for database in databases:
            self.add_database(database)

    def add_database(self, database: IRRDatabase) -> None:
        """Add one member database (unique by name)."""
        if database.name in self._databases:
            raise RPSLError(f"duplicate IRR database {database.name!r}")
        self._databases[database.name] = database

    def database(self, name: str) -> IRRDatabase:
        """Look up a member database by name."""
        try:
            return self._databases[name]
        except KeyError as exc:
            raise RPSLError(f"unknown IRR database {name!r}") from exc

    @property
    def databases(self) -> list[IRRDatabase]:
        """All member databases, in registration order."""
        return list(self._databases.values())

    def routes_covering(self, prefix: Prefix) -> list[RouteObject]:
        """Covering route objects across all member databases."""
        found: list[RouteObject] = []
        for database in self._databases.values():
            found.extend(database.routes_covering(prefix))
        return found

    @property
    def version(self) -> tuple[int, int]:
        """Combined mutation counter over member databases."""
        return (
            len(self._databases),
            sum(db.version for db in self._databases.values()),
        )

    def as_set(self, name: str) -> AsSetObject | None:
        """First as-set with this name across member databases."""
        for database in self._databases.values():
            as_set = database.as_set(name)
            if as_set is not None:
                return as_set
        return None

    def aut_num(self, asn: int) -> AutNumObject | None:
        """First aut-num for this ASN across member databases."""
        for database in self._databases.values():
            aut_num = database.aut_num(asn)
            if aut_num is not None:
                return aut_num
        return None

    @property
    def route_count(self) -> int:
        """Total route objects across all member databases."""
        return sum(db.route_count for db in self._databases.values())
