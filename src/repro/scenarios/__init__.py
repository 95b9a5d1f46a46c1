"""``repro.scenarios``: pluggable adversarial/ecosystem scenario families.

Each module in this package defines one :class:`ScenarioFamily`
(DESIGN.md §17) — declarative params in, a metrics dict plus rendered
figure out, never mutating the world it composes onto.  The
:data:`FAMILIES` table is the package's registry;
``repro.experiments.registry`` wraps every entry as an
``ExperimentSpec``, which is how the families surface through
``reproduce --only``, ``repro sweep``, the ``reproduce-cold``
benchmark workload and the serving layer without any per-family wiring.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Mapping

from repro.scenarios import controlled, martian, roa_storm, routeserver_rov
from repro.scenarios.base import ScenarioFamily

__all__ = ["FAMILIES", "ScenarioFamily"]

#: Every scenario family, in presentation order, keyed by stable name.
FAMILIES: Mapping[str, ScenarioFamily] = MappingProxyType(
    {
        family.name: family
        for family in (
            routeserver_rov.FAMILY,
            controlled.FAMILY,
            roa_storm.FAMILY,
            martian.FAMILY,
        )
    }
)
