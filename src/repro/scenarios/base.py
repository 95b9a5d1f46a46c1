"""The ``ScenarioFamily`` contract (DESIGN.md §17).

A scenario family is an *adversarial or ecosystem what-if* composed onto
an already-built :class:`~repro.scenario.world.World`: declarative
parameters in, a metrics dict out, plus a rendered text figure.  The
crucial discipline is that a family never mutates the world it is given
— perturbations go through private clones (a
:class:`~repro.delta.live.LiveWorld`, a fresh
:class:`~repro.bgp.routeserver.RouteServer`, an extra propagation with
an explicit :class:`~repro.bgp.policy.RouteClass`) — so the (config,
scale, seed) checkpoint identity of the input world, and every golden
digest pinned on it, stays valid no matter which scenarios ran first.

Families are registered as :class:`~repro.experiments.registry
.ExperimentSpec` entries (the registry imports this package, never the
reverse), which is what makes ``reproduce --only``, ``repro sweep``,
the ``reproduce-cold`` benchmark workload and the serving layer's
``/experiments/<name>`` pick every family up with zero changes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from repro.scenario.world import World

__all__ = ["ScenarioFamily"]


@dataclass(frozen=True)
class ScenarioFamily:
    """One pluggable scenario family behind the uniform run/render API.

    ``params`` documents the family's declarative knobs and their
    defaults; ``run(world)`` applies the defaults, ``run(world, k=v)``
    overrides them per call (tests exercise the knobs this way without
    another registry entry per combination).
    """

    #: Short stable identifier — doubles as the experiment-registry key.
    name: str
    #: Human title shown by ``reproduce --list`` and the serving layer.
    title: str
    #: The related work the family reproduces (PAPERS.md).
    paper_ref: str
    #: ``(world, params) -> metrics dict``; must not mutate ``world``.
    compute: Callable[[World, Mapping[str, Any]], dict] = field(repr=False)
    #: ``metrics dict -> printable text`` (pure formatting).
    format: Callable[[dict], str] = field(repr=False)
    #: Declarative parameter defaults, all overridable via ``run``.
    params: Mapping[str, Any] = field(default_factory=dict)

    def run(self, world: World, **overrides: Any) -> dict:
        """Run the family with defaults, applying keyword overrides."""
        unknown = set(overrides) - set(self.params)
        if unknown:
            raise KeyError(
                f"unknown {self.name} parameter(s) {sorted(unknown)}; "
                f"choose from {sorted(self.params)}"
            )
        merged = {**self.params, **overrides}
        return self.compute(world, merged)

    def render(self, result: dict) -> str:
        """Format a ``run`` result as printable text."""
        return self.format(result)
