"""MANRS participation analyses (§6.3, §7).

Three views of who is in MANRS:

* **geographical distribution** — member AS counts per RIR over time
  (Figure 4a) and member org / AS growth (Figure 2);
* **routing-table presence** — share of routed IPv4 address space
  announced by member ASes, per RIR (Figure 4b);
* **registration completeness** — how much of each member organisation's
  AS and address-space footprint is actually registered in MANRS
  (Finding 7.0).
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date

from repro import obs
from repro.bgp.table import Prefix2AS
from repro.errors import TopologyError
from repro.manrs.registry import MANRSRegistry
from repro.net.prefix import aggregate_address_count
from repro.registry.rir import RIR
from repro.topology.model import ASTopology

__all__ = [
    "members_by_rir",
    "routed_space_share_by_rir",
    "CompletenessReport",
    "registration_completeness",
]


def members_by_rir(
    topology: ASTopology, manrs: MANRSRegistry, as_of: date
) -> dict[RIR, int]:
    """Member AS counts per RIR region at ``as_of`` (Figure 4a)."""
    counts = {rir: 0 for rir in RIR}
    for asn in manrs.member_asns(as_of=as_of):
        if asn in topology:
            counts[topology.get_as(asn).rir] += 1
    return counts


def routed_space_share_by_rir(
    topology: ASTopology,
    manrs: MANRSRegistry,
    prefix2as: Prefix2AS,
    as_of: date,
) -> dict[RIR, float]:
    """Percent of all routed IPv4 space announced by members, per member
    RIR (Figure 4b).  Shares are relative to the whole table, so the
    stacked per-RIR series sums to the overall MANRS share."""
    total = prefix2as.total_address_space
    if total == 0:
        return {rir: 0.0 for rir in RIR}
    members = manrs.member_asns(as_of=as_of)
    by_rir: dict[RIR, list] = {rir: [] for rir in RIR}
    for asn in members:
        if asn not in topology:
            continue
        rir = topology.get_as(asn).rir
        by_rir[rir].extend(
            p for p in prefix2as.prefixes_of(asn) if p.version == 4
        )
    return {
        rir: 100.0 * aggregate_address_count(prefixes) / total
        for rir, prefixes in by_rir.items()
    }


@dataclass(frozen=True)
class CompletenessReport:
    """Finding 7.0: organisation-level registration completeness."""

    total_orgs: int
    #: Organisations whose every AS is registered in MANRS.
    all_asns_registered: int
    #: Organisations announcing IPv4 space only through registered ASes.
    all_space_via_registered: int
    #: Organisations announcing some space from unregistered ASes.
    partial_announcers: int
    #: ...of which, organisations announcing *only* from unregistered ASes.
    only_unregistered_announcers: int
    #: Organisations with unregistered ASes that are all quiescent.
    quiescent_unregistered_only: int

    @property
    def pct_all_asns(self) -> float:
        """Percent of member orgs with every AS registered."""
        return 100.0 * self.all_asns_registered / self.total_orgs if self.total_orgs else 0.0

    @property
    def pct_all_space(self) -> float:
        """Percent of member orgs announcing only via registered ASes."""
        return (
            100.0 * self.all_space_via_registered / self.total_orgs
            if self.total_orgs
            else 0.0
        )


def registration_completeness(
    topology: ASTopology,
    manrs: MANRSRegistry,
    prefix2as: Prefix2AS,
    as_of: date,
) -> CompletenessReport:
    """Compute Finding 7.0's organisation-level statistics."""
    member_asns = manrs.member_asns(as_of=as_of)
    total = all_asns = all_space = partial = only_unregistered = quiescent_only = 0
    for org_id in sorted(manrs.member_orgs(as_of=as_of)):
        try:
            org = topology.get_org(org_id)
        except TopologyError:
            # A registry member as2org has never seen (an organisation
            # that joined after the topology snapshot): no ASNs to judge.
            obs.add("participation.orgs_unmapped")
            continue
        registered = [a for a in org.asns if a in member_asns]
        unregistered = [a for a in org.asns if a not in member_asns]
        if not registered:
            continue  # org joined a program with ASNs outside topology
        total += 1
        if not unregistered:
            all_asns += 1

        def announces(asn: int) -> bool:
            return any(
                p.version == 4 for p in prefix2as.prefixes_of(asn)
            )

        unregistered_announcing = [a for a in unregistered if announces(a)]
        registered_announcing = [a for a in registered if announces(a)]
        if not unregistered_announcing:
            all_space += 1
            if unregistered:
                quiescent_only += 1
        else:
            partial += 1
            if not registered_announcing:
                only_unregistered += 1
    return CompletenessReport(
        total_orgs=total,
        all_asns_registered=all_asns,
        all_space_via_registered=all_space,
        partial_announcers=partial,
        only_unregistered_announcers=only_unregistered,
        quiescent_unregistered_only=quiescent_only,
    )
