"""Pure-Python reference implementations: the oracles the kernels answer to.

Every stage the runtime computes with a columnar kernel has one slow,
obviously correct twin here: a per-object loop over the radix trie, the
registry's own covering lookup, the scalar propagation call or a brute
force scan.  None of this runs outside the test suite.  The runtime has
exactly one implementation per stage; these functions are what it must
equal, value for value and (where output order feeds serialisation)
order for order.

``tests/test_kernels.py`` compares runtime against oracle on generated
inputs (Hypothesis) and on one pinned golden world's real inputs.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.bgp.collector import RouteGroup
from repro.bgp.policy import RouteClass
from repro.bgp.propagation import PropagationEngine
from repro.bgp.table import Prefix2AS
from repro.core.impact import SaturationReport
from repro.hegemony.scores import hegemony_scores
from repro.ihr.records import TransitGroup, TransitInfo
from repro.irr.database import IRRCollection, IRRDatabase
from repro.irr.validation import IRRStatus
from repro.irr.validation import _classify as irr_classify
from repro.net.asn import strip_prepending
from repro.net.prefix import Prefix, aggregate_address_count
from repro.net.radix import RadixTree
from repro.rpki.roa import VRP
from repro.rpki.rov import RPKIStatus
from repro.rpki.rov import _classify as rov_classify
from repro.topology.model import ASTopology

Route = tuple[Prefix, int]


def _vrp_trie(vrps: Iterable[VRP]) -> RadixTree[VRP]:
    trie: RadixTree[VRP] = RadixTree()
    for vrp in vrps:
        trie.insert(vrp.prefix, vrp)
    return trie


# -- route classification ----------------------------------------------------


def rov_verdicts(
    vrps: Iterable[VRP], routes: Iterable[Route]
) -> dict[Route, RPKIStatus]:
    """RFC 6811 verdict per route: ``_classify`` over ``trie.covering``."""
    trie = _vrp_trie(vrps)
    return {
        (prefix, origin): rov_classify(trie.covering(prefix), prefix, origin)
        for prefix, origin in routes
    }


def irr_verdicts(
    registry: IRRCollection | IRRDatabase, routes: Iterable[Route]
) -> dict[Route, IRRStatus]:
    """IRR verdict per route: ``_classify`` over ``routes_covering``."""
    return {
        (prefix, origin): irr_classify(
            registry.routes_covering(prefix), prefix, origin
        )
        for prefix, origin in routes
    }


# -- RPKI saturation (Equation 7/8) -------------------------------------------


def covered_space(vrps: Iterable[VRP], prefixes: Iterable[Prefix]) -> list[Prefix]:
    """The prefixes (in input order) that some VRP covers."""
    trie = _vrp_trie(vrps)
    return [prefix for prefix in prefixes if trie.covering(prefix)]


def saturation(
    prefix2as: Prefix2AS, vrps: Sequence[VRP], member_asns: frozenset[int]
) -> tuple[SaturationReport, SaturationReport]:
    """(MANRS, non-MANRS) saturation by per-prefix aggregation."""
    member_prefixes: list[Prefix] = []
    other_prefixes: list[Prefix] = []
    for asn in prefix2as.origin_asns:
        bucket = member_prefixes if asn in member_asns else other_prefixes
        bucket.extend(p for p in prefix2as.prefixes_of(asn) if p.version == 4)
    return tuple(
        SaturationReport(
            routed_space=aggregate_address_count(prefixes),
            covered_space=aggregate_address_count(covered_space(vrps, prefixes)),
        )
        for prefixes in (member_prefixes, other_prefixes)
    )


# -- IHR transit groups ------------------------------------------------------


def _customer_learning(
    stripped_paths: list[tuple[int, ...]],
    customers_of: dict[int, frozenset[int]],
) -> dict[int, bool]:
    """For each on-path AS, did it learn the route from a direct customer?

    On a prepending-stripped path ``(vp, ..., t, next, ..., origin)`` the
    AS after ``t`` is the neighbour ``t`` accepted the route from; the
    flag is set when that neighbour is ``t``'s customer.
    """
    learned: dict[int, bool] = {}
    for stripped in stripped_paths:
        for position in range(1, len(stripped) - 1):
            transit = stripped[position]
            if transit in learned:
                continue
            learned[transit] = stripped[position + 1] in customers_of[transit]
    return learned


def transit_groups_indexed(
    visible: list[RouteGroup],
    group_statuses: list[tuple],
    topology: ASTopology,
    trim: float,
) -> list[tuple[int, TransitGroup]]:
    """``(index, TransitGroup)`` per visible group with transit scores."""
    customers_of = {asn: topology.customers_of(asn) for asn in topology.asns}
    pairs: list[tuple[int, TransitGroup]] = []
    for index, (group, statuses) in enumerate(zip(visible, group_statuses)):
        stripped = [strip_prepending(path) for path in group.paths.values()]
        scores = hegemony_scores(stripped, trim=trim, prestripped=True)
        if not scores:
            continue
        learned = _customer_learning(stripped, customers_of)
        transits = {
            asn: TransitInfo(
                hegemony=score, from_customer=learned.get(asn, False)
            )
            for asn, score in scores.items()
        }
        pairs.append(
            (
                index,
                TransitGroup(
                    origin=group.origin,
                    prefixes=group.prefixes,
                    statuses=statuses,
                    transits=transits,
                    visibility=len(group.paths),
                ),
            )
        )
    return pairs


def transit_groups(
    visible: list[RouteGroup],
    group_statuses: list[tuple],
    topology: ASTopology,
    trim: float,
) -> list[TransitGroup]:
    """The per-group transit scoring loop."""
    return [
        group
        for _, group in transit_groups_indexed(
            visible, group_statuses, topology, trim
        )
    ]


# -- cover sets ----------------------------------------------------------------


def affected(routes: Sequence[Route], changed: Iterable[Prefix]) -> list[int]:
    """Indices of routes some changed prefix contains, by brute force."""
    changed = list(changed)
    return sorted(
        {
            index
            for index, (prefix, _) in enumerate(routes)
            for cover in changed
            if cover.contains(prefix)
        }
    )


# -- propagation ---------------------------------------------------------------


def paths(
    engine: PropagationEngine,
    keys: Iterable[tuple[int, RouteClass]],
    vantage_points: Sequence[int],
) -> list[dict[int, tuple[int, ...]]]:
    """Per-key vantage-point paths, one scalar ``paths_to`` call each."""
    return [
        engine.paths_to(origin, vantage_points, route_class)
        for origin, route_class in keys
    ]
