"""Weighted scenario distributions for robust planning.

A :class:`ScenarioSet` is a frozen, normalised distribution over
:class:`~repro.parallel.scenarios.ClusterScenario` machine conditions
(``None`` = the pristine machine). :meth:`Session.robust_plan` ranks
configurations by *expected* cost over the set and reports the
worst case alongside — the scenario-sampling follow-on the ROADMAP
called for. :data:`SCENARIO_SETS` holds the named distributions the
CLI exposes (``repro plan --scenarios mixed-degraded``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..parallel.scenarios import SCENARIOS, ClusterScenario, get_scenario

__all__ = ["ScenarioSet", "SCENARIO_SETS", "get_scenario_set"]


@dataclass(frozen=True)
class ScenarioSet:
    """A named, weighted set of machine conditions.

    ``members`` pairs each scenario (or ``None`` for the pristine
    machine) with a positive weight; weights are normalised on access.
    Scenarios whose every knob is neutral are canonicalised to ``None``
    at construction, so a "uniform-only" set prices — and caches —
    exactly like no scenario at all.

    >>> s = ScenarioSet.of("uniform", "degraded", weights=(3, 1), name="two-state")
    >>> s.labels()  # the neutral 'uniform' preset canonicalises to None
    ('neutral', 'degraded')
    >>> s.weights
    (0.75, 0.25)
    >>> s.is_neutral_only
    False
    >>> ScenarioSet.from_dict(s.to_dict()) == s
    True
    """

    name: str
    members: tuple

    def __post_init__(self):
        if not self.members:
            raise ValueError(f"scenario set {self.name!r} must not be empty")
        canon = []
        for scenario, weight in self.members:
            scenario = get_scenario(scenario)
            if not (
                isinstance(weight, (int, float))
                and math.isfinite(weight)
                and weight > 0
            ):
                raise ValueError(
                    f"scenario weights must be positive finite numbers, "
                    f"got {weight!r}"
                )
            if scenario is not None and scenario.is_neutral:
                scenario = None
            if scenario is not None and scenario.name == "neutral":
                # the label of the pristine column: a degraded member
                # under it would report its costs as the pristine ones
                raise ValueError(
                    f"scenario set {self.name!r}: a degraded member is "
                    "named like the pristine machine, 'neutral'"
                )
            canon.append((scenario, float(weight)))
        labels = [s.name if s is not None else "neutral" for s, _ in canon]
        if len(set(labels)) != len(labels):
            raise ValueError(
                f"scenario set {self.name!r} has duplicate scenario labels: {labels}"
            )
        object.__setattr__(self, "members", tuple(canon))

    # ------------------------------------------------------------------
    @classmethod
    def of(cls, *scenarios, weights=None, name: str = "custom") -> "ScenarioSet":
        """Build a set from scenarios (names or instances), default-uniform."""
        if weights is None:
            weights = (1.0,) * len(scenarios)
        if len(weights) != len(scenarios):
            raise ValueError(
                f"{len(scenarios)} scenarios but {len(weights)} weights"
            )
        return cls(name, tuple(zip(scenarios, weights)))

    @property
    def scenarios(self) -> tuple:
        return tuple(s for s, _ in self.members)

    @property
    def weights(self) -> tuple:
        """Normalised weights, same order as :attr:`scenarios`."""
        total = sum(w for _, w in self.members)
        return tuple(w / total for _, w in self.members)

    def items(self):
        """Yield ``(scenario_or_None, normalised_weight)`` pairs."""
        return tuple(zip(self.scenarios, self.weights))

    @property
    def is_neutral_only(self) -> bool:
        """True when every member is the pristine machine."""
        return all(s is None for s in self.scenarios)

    def labels(self) -> tuple:
        return tuple(
            s.name if s is not None else "neutral" for s in self.scenarios
        )

    def __len__(self) -> int:
        return len(self.members)

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-ready mapping; inverse of :meth:`from_dict`."""
        return {
            "name": self.name,
            "members": [
                {
                    "scenario": s.to_dict() if s is not None else None,
                    "weight": w,
                }
                for s, w in self.members
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioSet":
        members = tuple(
            (
                ClusterScenario.from_dict(m["scenario"])
                if m["scenario"] is not None
                else None,
                m["weight"],
            )
            for m in data["members"]
        )
        return cls(data["name"], members)


#: Named scenario distributions (the ``repro plan --scenarios`` choices).
SCENARIO_SETS: dict[str, ScenarioSet] = {
    s.name: s
    for s in (
        # the pristine machine only — robust_plan degenerates to plan
        ScenarioSet("neutral", ((None, 1.0),)),
        # a machine that is usually fine but sometimes degraded somewhere
        ScenarioSet(
            "mixed-degraded",
            (
                (None, 0.40),
                (SCENARIOS["straggler"], 0.20),
                (SCENARIOS["degraded-ring"], 0.15),
                (SCENARIOS["slow-link"], 0.15),
                (SCENARIOS["degraded"], 0.10),
            ),
        ),
        ScenarioSet(
            "pipeline-degraded",
            (
                (SCENARIOS["straggler"], 1.0),
                (SCENARIOS["slow-link"], 1.0),
                (SCENARIOS["skewed"], 1.0),
                (SCENARIOS["contention"], 1.0),
            ),
        ),
        ScenarioSet(
            "collective-degraded",
            (
                (SCENARIOS["degraded-ring"], 1.0),
                (SCENARIOS["ring-straggler"], 1.0),
                (SCENARIOS["slow-ring-link"], 1.0),
            ),
        ),
        # the same machine priced under the two-level allreduce schedule:
        # healthy, on a congested fabric, and the flat-ring baseline for
        # comparison (algo selection is a scenario knob, so a robust plan
        # can weigh collective schedules like any other machine condition)
        ScenarioSet(
            "hierarchical-mixed",
            (
                (None, 0.40),
                (SCENARIOS["hierarchical"], 0.35),
                (SCENARIOS["hierarchical-degraded"], 0.25),
            ),
        ),
    )
}


def get_scenario_set(scenarios) -> ScenarioSet:
    """Resolve a scenario set given by name, instance, or scenario list.

    >>> get_scenario_set("mixed-degraded").name
    'mixed-degraded'
    >>> get_scenario_set(["straggler", "degraded-ring"]).weights
    (0.5, 0.5)
    >>> sorted(SCENARIO_SETS)  # the named distributions the CLI exposes
    ['collective-degraded', 'hierarchical-mixed', 'mixed-degraded', 'neutral', 'pipeline-degraded']
    """
    if isinstance(scenarios, ScenarioSet):
        return scenarios
    if isinstance(scenarios, str):
        try:
            return SCENARIO_SETS[scenarios]
        except KeyError:
            raise ValueError(
                f"unknown scenario set {scenarios!r}; "
                f"named sets: {sorted(SCENARIO_SETS)}"
            ) from None
    if isinstance(scenarios, (list, tuple)):
        return ScenarioSet.of(*scenarios)
    raise TypeError(
        f"expected a ScenarioSet, a named set, or a scenario sequence; "
        f"got {type(scenarios).__name__}"
    )
