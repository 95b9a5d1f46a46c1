"""Synthetic event traces: applicable-by-construction event streams.

:func:`synthesize_events` draws a stream of delta events against a
private :class:`~repro.delta.events.DeltaState` clone, applying each
event before generating the next, so every event in the returned list is
*applicable* when replayed in order — ROAs expire only if published,
route objects are removed only if registered, memberships leave only if
joined.  The same trace therefore replays cleanly through both
:class:`~repro.delta.live.LiveWorld` and
:func:`~repro.delta.rebuild.cold_rebuild`, which is exactly what the
replay==rebuild tests, ``repro replay``, and the ``delta-replay``
benchmark workload need.

Determinism: the stream is a pure function of ``(world, n, seed,
kinds)`` — a ``numpy`` Generator seeded explicitly, draws in a fixed
order, and all candidate pools iterated in sorted/registration order.
"""

from __future__ import annotations

from datetime import date
from typing import Sequence

import numpy as np

from repro.delta.events import (
    DeltaState,
    Event,
    LinkAdded,
    MemberJoined,
    MemberLeft,
    PolicyFlipped,
    RoaExpired,
    RoaIssued,
    RouteObjectAdded,
    RouteObjectRemoved,
    apply_raw,
)
from repro.irr.objects import RouteObject
from repro.manrs.actions import Program
from repro.manrs.registry import Participant
from repro.rpki.roa import ROA
from repro.scenario.world import World
from repro.topology.model import Relationship

__all__ = ["EVENT_KINDS", "synthesize_events"]

#: Draw weights loosely mirror observed registry churn: ROA and route
#: object turnover dominates, membership and topology moves are rare.
_WEIGHTED_KINDS: tuple[tuple[str, float], ...] = (
    ("RoaIssued", 0.22),
    ("RoaExpired", 0.18),
    ("RouteObjectAdded", 0.18),
    ("RouteObjectRemoved", 0.12),
    ("MemberJoined", 0.10),
    ("MemberLeft", 0.06),
    ("PolicyFlipped", 0.10),
    ("LinkAdded", 0.04),
)

EVENT_KINDS: tuple[str, ...] = tuple(kind for kind, _ in _WEIGHTED_KINDS)

_ROA_NOT_BEFORE = date(2015, 1, 1)
_ROA_NOT_AFTER = date(2032, 1, 1)


def _pick(rng: np.random.Generator, items: Sequence):
    return items[int(rng.integers(len(items)))]


class _Synthesizer:
    def __init__(self, world: World, rng: np.random.Generator, seed: int):
        self._world = world
        self._rng = rng
        self._seed = seed
        self._state = DeltaState.from_world(world)
        self._origin_asns = sorted(
            asn
            for asn, originations in world.originations.items()
            if originations
        )
        if not self._origin_asns:
            raise ValueError("world announces no routes; nothing to perturb")
        self._trust_anchors = [
            certificate
            for certificate_id, certificate in sorted(
                self._state.repository.certificates.items()
            )
            if certificate.issuer_id is None
        ]
        self._counter = 0

    def _origination(self):
        asn = _pick(self._rng, self._origin_asns)
        return asn, _pick(self._rng, self._world.originations[asn])

    def _roa_issued(self) -> Event:
        asn, origination = self._origination()
        anchor = next(
            certificate
            for certificate in self._trust_anchors
            if certificate.covers(origination.block)
        )
        return RoaIssued(
            roa=ROA(
                prefix=origination.block,
                asn=asn,
                max_length=origination.prefix.length,
                certificate_id=anchor.certificate_id,
                not_before=_ROA_NOT_BEFORE,
                not_after=_ROA_NOT_AFTER,
            )
        )

    def _roa_expired(self) -> Event:
        roas = self._state.repository.roas
        if not roas:
            return self._roa_issued()
        return RoaExpired(roa=_pick(self._rng, roas))

    def _route_object_added(self) -> Event:
        asn, origination = self._origination()
        return RouteObjectAdded(
            route=RouteObject(
                prefix=origination.block,
                origin=asn,
                source="RADB",
                mnt_by=f"MAINT-DELTA-{asn}",
                descr=f"delta route of AS{asn}",
                created=date(2016, 1, 1),
                last_modified=date(2022, 1, 1),
            )
        )

    def _route_object_removed(self) -> Event:
        registered = [
            route
            for database in self._state.irr.databases
            for route in database.all_routes()
        ]
        if not registered:
            return self._route_object_added()
        return RouteObjectRemoved(route=_pick(self._rng, registered))

    def _member_joined(self) -> Event:
        asn = _pick(self._rng, self._state.topology.asns)
        self._counter += 1
        return MemberJoined(
            participant=Participant(
                org_id=f"ORG-DELTA-{self._seed}-{self._counter}",
                program=Program.ISP,
                asns=(asn,),
                joined=self._world.snapshot_date,
            )
        )

    def _member_left(self) -> Event:
        participants = self._state.manrs.participants
        if not participants:
            return self._member_joined()
        participant = _pick(self._rng, participants)
        return MemberLeft(
            org_id=participant.org_id, program=participant.program
        )

    def _link_added(self) -> Event:
        asns = self._state.topology.asns
        for _ in range(50):
            a = _pick(self._rng, asns)
            b = _pick(self._rng, asns)
            if a != b and not self._state.topology.linked(a, b):
                return LinkAdded(a=a, b=b, relationship=Relationship.PEER)
        return self._policy_flipped()

    def _policy_flipped(self) -> Event:
        return PolicyFlipped(asn=_pick(self._rng, self._state.topology.asns))

    def generate(self, kind: str) -> Event:
        maker = {
            "RoaIssued": self._roa_issued,
            "RoaExpired": self._roa_expired,
            "RouteObjectAdded": self._route_object_added,
            "RouteObjectRemoved": self._route_object_removed,
            "MemberJoined": self._member_joined,
            "MemberLeft": self._member_left,
            "LinkAdded": self._link_added,
            "PolicyFlipped": self._policy_flipped,
        }.get(kind)
        if maker is None:
            raise ValueError(f"unknown event kind {kind!r}")
        event = maker()
        apply_raw(self._state, event)
        return event


def synthesize_events(
    world: World,
    n: int | None = None,
    seed: int = 0,
    kinds: Sequence[str] | None = None,
) -> list[Event]:
    """A deterministic, applicable-in-order event stream for ``world``.

    Either ``n`` draws from the weighted kind distribution, or one event
    per entry of an explicit ``kinds`` list (how the Hypothesis tests
    steer coverage).  Events are generated against a private state clone
    that each event is applied to before the next is drawn, so the whole
    list replays without :class:`~repro.errors.DeltaError`.
    """
    if (n is None) == (kinds is None):
        raise ValueError("pass exactly one of n= or kinds=")
    rng = np.random.default_rng(seed)
    synthesizer = _Synthesizer(world, rng, seed)
    if kinds is None:
        weights = np.array([weight for _, weight in _WEIGHTED_KINDS])
        cumulative = np.cumsum(weights / weights.sum())
        kinds = [
            EVENT_KINDS[int(np.searchsorted(cumulative, rng.random()))]
            for _ in range(n)
        ]
    return [synthesizer.generate(kind) for kind in kinds]
