"""Kernel equivalence: every columnar kernel against its pure-Python oracle.

Each runtime stage has exactly one implementation; the slow, obviously
correct references it must equal live in ``tests/oracle.py``.  Two
kinds of check pin the pair together:

* Hypothesis properties on *generated* inputs, where corner cases
  (empty inputs, duplicate prefixes, AS0 entries, shared covering sets,
  IPv6) a fixed world may never hit get explored;
* :class:`TestOracleAtPinnedGolden`, which feeds every stage the real
  inputs of one pinned golden world (``tests/goldens/world_digests.json``,
  scale 0.05) and asserts runtime == oracle, value for value and, where
  output order feeds serialisation, order for order.  Together with the
  golden digest itself this shows what building the whole world under
  the references would show: the kernels are the only place the two
  could differ, and each gets identical inputs here.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp import collector
from repro.bgp.collector import RouteGroup, collect_rib
from repro.bgp.policy import RouteClass
from repro.bgp.propagation import PropagationEngine
from repro.core.impact import rpki_saturation
from repro.datasets.checkpoint import world_digest
from repro.delta import LiveWorld, RouteCoverIndex, synthesize_events
from repro.hegemony.scores import DEFAULT_TRIM
from repro.ihr import pipeline as ihr_pipeline
from repro.ihr.pipeline import _transit_groups, transit_groups_indexed
from repro.irr.database import IRRDatabase
from repro.irr.objects import RouteObject
from repro.irr.validation import validate_irr_many
from repro.kernels.intervals import union_address_count
from repro.net.prefix import Prefix, aggregate_address_count
from repro.registry.rir import RIR
from repro.rpki.roa import VRP
from repro.rpki.rov import ROVValidator
from repro.scenario.build import build_world
from repro.scenario.timeline import Timeline
from repro.topology.model import (
    ASCategory,
    ASTopology,
    AutonomousSystem,
    Organization,
    Relationship,
)
from tests import oracle
from tests.test_shard import _announcements_of, _in_process_pool

GOLDENS = Path(__file__).parent / "goldens" / "world_digests.json"


# -- strategies -------------------------------------------------------------

ASNS = st.integers(min_value=1, max_value=64)


@st.composite
def v4_prefixes(draw) -> Prefix:
    length = draw(st.integers(min_value=8, max_value=32))
    key = draw(st.integers(min_value=0, max_value=(1 << length) - 1))
    return Prefix(key << (32 - length), length, 4)


@st.composite
def v6_prefixes(draw) -> Prefix:
    length = draw(st.integers(min_value=16, max_value=64))
    key = draw(st.integers(min_value=0, max_value=(1 << length) - 1))
    return Prefix(key << (128 - length), length, 6)


PREFIXES = st.one_of(v4_prefixes(), v6_prefixes())


@st.composite
def vrps(draw) -> VRP:
    prefix = draw(PREFIXES)
    # AS0 entries exercise the "covers but never origin-matches" rule.
    asn = draw(st.one_of(st.just(0), ASNS))
    max_length = draw(st.integers(min_value=prefix.length, max_value=prefix.bits))
    return VRP(
        prefix=prefix, asn=asn, max_length=max_length, trust_anchor=RIR.RIPE
    )


ROUTES = st.lists(st.tuples(PREFIXES, ASNS), max_size=40)


# -- route classification ---------------------------------------------------


class TestClassificationEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(vrp_list=st.lists(vrps(), max_size=30), routes=ROUTES)
    def test_rov_interval_classify_matches_trie(self, vrp_list, routes):
        runtime = ROVValidator(vrp_list).validate_many(routes)
        assert runtime == oracle.rov_verdicts(vrp_list, routes)

    @settings(max_examples=60, deadline=None)
    @given(
        objects=st.lists(st.tuples(PREFIXES, ASNS), max_size=30),
        routes=ROUTES,
    )
    def test_irr_interval_classify_matches_trie(self, objects, routes):
        database = IRRDatabase("TEST")
        for prefix, origin in objects:
            database.add_route(
                RouteObject(prefix=prefix, origin=origin, source="TEST")
            )
        expected = oracle.irr_verdicts(database, routes)
        assert validate_irr_many(database, routes) == expected

    @settings(max_examples=60, deadline=None)
    @given(
        vrp_list=st.lists(vrps(), max_size=30),
        prefixes=st.lists(PREFIXES, max_size=40),
    )
    def test_covered_space_matches_trie(self, vrp_list, prefixes):
        assert ROVValidator(vrp_list).covered_space(
            prefixes
        ) == oracle.covered_space(vrp_list, prefixes)


# -- address-space accounting ----------------------------------------------


class TestUnionAddressCount:
    @settings(max_examples=80, deadline=None)
    @given(prefixes=st.lists(v4_prefixes(), max_size=40))
    def test_matches_aggregate_address_count(self, prefixes):
        ordered = sorted(prefixes, key=lambda p: (p.first, p.length))
        firsts = np.array([p.first for p in ordered], dtype=np.int64)
        lasts = np.array([p.last for p in ordered], dtype=np.int64)
        assert union_address_count(firsts, lasts) == aggregate_address_count(
            prefixes
        )


# -- hegemony transit groups ------------------------------------------------


@st.composite
def transit_scenarios(draw):
    """A tiny topology plus route groups whose paths stay inside it."""
    asns = draw(
        st.lists(
            st.integers(min_value=10, max_value=40),
            min_size=2,
            max_size=10,
            unique=True,
        )
    )
    topology = ASTopology()
    topology.add_org(Organization("ORG-T", "Test Org", "ZZ"))
    for asn in asns:
        topology.add_as(
            AutonomousSystem(
                asn=asn,
                org_id="ORG-T",
                country="ZZ",
                rir=RIR.RIPE,
                category=ASCategory.STUB,
            )
        )
    # Random provider→customer edges (drives the from-customer flags).
    pairs = [(a, b) for a in asns for b in asns if a != b]
    for a, b in draw(
        st.lists(st.sampled_from(pairs), max_size=6, unique=True)
    ):
        if b not in topology.neighbors(a):
            topology.add_link(a, b, Relationship.PROVIDER_CUSTOMER)
    member = st.sampled_from(asns)
    paths = st.lists(
        st.lists(member, min_size=2, max_size=6).map(tuple),
        min_size=1,
        max_size=8,
    )
    groups = []
    statuses = []
    for gi in range(draw(st.integers(min_value=1, max_value=4))):
        group_paths = {path[0]: path for path in draw(paths)}
        prefix = Prefix((10 << 24) + (gi << 8), 24, 4)
        groups.append(
            RouteGroup(
                origin=draw(member),
                route_class=RouteClass(),
                prefixes=(prefix,),
                paths=group_paths,
            )
        )
        statuses.append((("valid", "valid"),))
    return topology, groups, statuses


class TestTransitGroups:
    @settings(max_examples=50, deadline=None)
    @given(scenario=transit_scenarios())
    def test_numpy_matches_python(self, scenario):
        topology, groups, statuses = scenario
        reference = oracle.transit_groups(groups, statuses, topology, 0.1)
        _assert_same_transit_groups(
            _transit_groups(groups, statuses, topology, 0.1), reference
        )


def _assert_same_transit_groups(runtime, reference):
    assert runtime == reference
    # Insertion order of each transits dict is part of the contract (it
    # feeds serialisation, hence the golden digests).
    for left, right in zip(runtime, reference):
        assert list(left.transits) == list(right.transits)


# -- batched propagation ----------------------------------------------------


def _assert_same_paths(runtime, reference):
    assert runtime == reference
    # Within-key vantage-point order feeds the RIB's serialisation.
    for left, right in zip(runtime, reference):
        assert list(left) == list(right)


class TestBatchPaths:
    def test_paths_to_many_matches_scalar(self, small_world):
        engine = PropagationEngine(
            small_world.topology, small_world.policies, paths_cache_size=0
        )
        keys = [
            (group.origin, group.route_class)
            for group in small_world.rib.groups
        ]
        _assert_same_paths(
            engine.paths_to_many(keys, small_world.vantage_points),
            oracle.paths(engine, keys, small_world.vantage_points),
        )

    def test_cached_replay_matches_scalar(self, small_world):
        cached = PropagationEngine(small_world.topology, small_world.policies)
        scalar = PropagationEngine(small_world.topology, small_world.policies)
        keys = [
            (group.origin, group.route_class)
            for group in small_world.rib.groups[:64]
        ]
        keys = keys + keys  # replay: second half must come from the cache
        batched = cached.paths_to_many(keys, small_world.vantage_points)
        # At least the duplicated half hits (distinct RouteClass values
        # may share a filter signature, so there can be a few more).
        assert cached.cache_info()["hits"] >= len(keys) // 2
        _assert_same_paths(
            batched, oracle.paths(scalar, keys, small_world.vantage_points)
        )


# -- timeline ---------------------------------------------------------------


def _oracle_saturation_series(world, timeline):
    """Per-year (MANRS, other) saturation percentages via the oracle."""
    series = []
    for year in timeline.years:
        as_of = timeline._year_end(year)  # noqa: SLF001
        members = world.manrs.member_asns(as_of=as_of)
        manrs, other = oracle.saturation(
            world.prefix2as, timeline.rov_at(year).all_vrps(), members
        )
        series.append((year, manrs.saturation, other.saturation))
    return series


class TestEndToEndEquivalence:
    def test_saturation_series_matches(self, small_world):
        timeline = Timeline(small_world)
        runtime = [
            (point.year, point.manrs_saturation, point.other_saturation)
            for point in timeline.saturation_series()
        ]
        assert runtime == _oracle_saturation_series(small_world, timeline)


# -- every kernel against its oracle on one pinned golden world -------------


@pytest.fixture(scope="module")
def golden_world():
    """The scale-0.05 golden world, checked against its pinned digest."""
    entry = next(
        e
        for e in json.loads(GOLDENS.read_text())["entries"]
        if e["scale"] == 0.05
    )
    world = build_world(scale=entry["scale"], seed=entry["seed"])
    assert world_digest(world) == entry["world_digest"]
    return world


def _routes_of(world):
    """Every RIB route, plus a wrong-origin twin of every seventh one so
    the invalid verdicts are exercised too."""
    routes = [
        (prefix, group.origin)
        for group in world.rib.groups
        for prefix in group.prefixes
    ]
    return routes + [(prefix, origin + 1) for prefix, origin in routes[::7]]


def _visible_with_statuses(world):
    """The IHR pipeline's hegemony inputs, as build_ihr_dataset forms them."""
    visible = [group for group in world.rib.groups if group.paths]
    statuses = [
        tuple(
            (
                world.rov.validate(prefix, group.origin),
                oracle.irr_classify(
                    world.irr.routes_covering(prefix), prefix, group.origin
                ),
            )
            for prefix in group.prefixes
        )
        for group in visible
    ]
    return visible, statuses


class TestOracleAtPinnedGolden:
    """Runtime == oracle at each stage, on the golden world's inputs."""

    def test_rov_classification(self, golden_world):
        routes = _routes_of(golden_world)
        vrps = golden_world.rov.all_vrps()
        fresh = ROVValidator(vrps)  # an empty memo: every route classifies
        assert fresh.validate_many(routes) == oracle.rov_verdicts(vrps, routes)

    def test_irr_classification(self, golden_world):
        registry = golden_world.irr
        routes = _routes_of(golden_world)
        # Drop the build's verdict memo so every route hits the kernel.
        registry.__dict__.pop("_validation_memo", None)
        expected = oracle.irr_verdicts(registry, routes)
        assert validate_irr_many(registry, routes) == expected

    def test_covered_space(self, golden_world):
        prefixes = [
            prefix
            for asn in golden_world.prefix2as.origin_asns
            for prefix in golden_world.prefix2as.prefixes_of(asn)
        ]
        vrps = golden_world.rov.all_vrps()
        assert golden_world.rov.covered_space(
            prefixes
        ) == oracle.covered_space(vrps, prefixes)

    def test_saturation_every_year(self, golden_world):
        timeline = Timeline(golden_world)
        for year in timeline.years:
            members = golden_world.manrs.member_asns(
                as_of=timeline._year_end(year)  # noqa: SLF001
            )
            rov = timeline.rov_at(year)
            assert rpki_saturation(
                golden_world.prefix2as, rov, members
            ) == oracle.saturation(
                golden_world.prefix2as, rov.all_vrps(), members
            ), year

    def test_transit_groups(self, golden_world):
        visible, statuses = _visible_with_statuses(golden_world)
        topology = golden_world.topology
        reference = oracle.transit_groups_indexed(
            visible, statuses, topology, DEFAULT_TRIM
        )
        _assert_same_transit_groups(
            _transit_groups(visible, statuses, topology, DEFAULT_TRIM),
            [group for _, group in reference],
        )
        indexed = transit_groups_indexed(
            visible, statuses, topology, DEFAULT_TRIM
        )
        assert [index for index, _ in indexed] == [
            index for index, _ in reference
        ]
        _assert_same_transit_groups(
            [group for _, group in indexed], [group for _, group in reference]
        )
        # The built dataset came through the same kernel.
        _assert_same_transit_groups(
            golden_world.ihr.transit_groups, [group for _, group in reference]
        )

    def test_sharded_transit_groups(self, golden_world, monkeypatch):
        visible, statuses = _visible_with_statuses(golden_world)
        monkeypatch.setattr(
            ihr_pipeline, "pool_map_consume", _in_process_pool()
        )
        sharded = ihr_pipeline._sharded_transit_groups(  # noqa: SLF001
            visible, statuses, golden_world.topology, DEFAULT_TRIM, 3, 2
        )
        _assert_same_transit_groups(
            sharded,
            oracle.transit_groups(
                visible, statuses, golden_world.topology, DEFAULT_TRIM
            ),
        )

    def test_collected_paths(self, golden_world, monkeypatch):
        world = golden_world
        engine = PropagationEngine(
            world.topology, world.policies, paths_cache_size=0
        )
        keys = [(group.origin, group.route_class) for group in world.rib.groups]
        reference = oracle.paths(engine, keys, world.vantage_points)
        _assert_same_paths([group.paths for group in world.rib.groups], reference)
        # The range-sharded collection runs the same kernel per shard.
        monkeypatch.setattr(collector, "pool_map_consume", _in_process_pool())
        sharded = collect_rib(
            PropagationEngine(world.topology, world.policies),
            _announcements_of(world),
            world.vantage_points,
            jobs=2,
            shards=3,
        )
        _assert_same_paths([group.paths for group in sharded.groups], reference)

    def test_cover_set(self, golden_world):
        routes = _routes_of(golden_world)
        changed = [vrp.prefix for vrp in golden_world.rov.all_vrps()[::5]]
        changed += [
            route.prefix
            for database in golden_world.irr.databases
            for route in database.all_routes()[::9]
        ]
        assert RouteCoverIndex(routes).affected(changed) == oracle.affected(
            routes, changed
        )

    def test_live_world_paths(self, golden_world):
        events = synthesize_events(
            golden_world, kinds=["LinkAdded", "PolicyFlipped"], seed=5
        )
        live = LiveWorld(golden_world)
        for event in events:
            live.apply(event)
        replayed = live.world()
        engine = PropagationEngine(
            replayed.topology, replayed.policies, paths_cache_size=0
        )
        keys = [
            (group.origin, group.route_class) for group in replayed.rib.groups
        ]
        _assert_same_paths(
            [group.paths for group in replayed.rib.groups],
            oracle.paths(engine, keys, replayed.vantage_points),
        )
