"""Failure processes: degradations that *arrive* over the course of a job.

A :class:`ScenarioProcess` turns the static machine conditions of
:data:`~repro.parallel.scenarios.SCENARIOS` into arrival processes: each
:class:`DegradationKind` pairs one :class:`ClusterScenario` with a
Poisson rate function over normalised job time ``[0, horizon]``.
Constant rates sample by exponential inter-arrival gaps; time-varying
rates sample by thinning (Lewis-Shedler): draw homogeneous arrivals at
the rate's ceiling, accept each at probability ``rate(t) / ceiling`` —
the standard numeric recipe for inhomogeneous Poisson point processes
(Hohmann, arXiv:1901.10754).

A draw is a :class:`ScenarioTimeline` — timestamped
:class:`ScenarioEvent`\\ s plus the horizon — whose :meth:`exposure`
collapses it to the time-weighted scenario mixture the cost model can
price: segments where no degradation is active count toward ``None``
(the pristine machine), overlapping events resolve to the most recently
started one, and the weights sum to 1. That mixture is exactly the
shape :meth:`Session.robust_plan` already prices, which is how
:mod:`repro.stochastic.monte_carlo` reuses the evaluation cache and the
batch estimator unchanged.

Everything here is a frozen, serializable value object
(``to_dict``/``from_dict``), and every draw is reproducible from an
integer seed via the SeedSequence spawning in
:func:`repro.rng.spawn_generators`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..parallel.scenarios import SCENARIOS, ClusterScenario, get_scenario
from ..rng import resolve_rng, spawn_generators

__all__ = [
    "RateFunction",
    "DegradationKind",
    "ScenarioEvent",
    "ScenarioTimeline",
    "ScenarioProcess",
    "PROCESSES",
    "get_process",
]


# ---------------------------------------------------------------------------
# rate functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RateFunction:
    """Arrival intensity λ(t) over normalised job time.

    ``kind="constant"`` is the homogeneous case λ(t) = ``rate``;
    ``kind="linear"`` interpolates ``rate`` at t=0 to ``rate_end`` at
    t=horizon — the simplest inhomogeneous shape, enough to model
    aging/wear-out arrivals that become likelier as the job runs.

    >>> RateFunction.constant(2.0)(0.3, horizon=1.0)
    2.0
    >>> RateFunction.linear(0.0, 4.0)(0.5, horizon=1.0)
    2.0
    """

    kind: str = "constant"
    rate: float = 0.0
    rate_end: float | None = None

    def __post_init__(self):
        if self.kind not in ("constant", "linear"):
            raise ValueError(
                f"unknown rate kind {self.kind!r}; choose 'constant' or 'linear'"
            )
        for value in (self.rate, self.rate_end):
            if value is not None and not (
                isinstance(value, (int, float)) and math.isfinite(value) and value >= 0
            ):
                raise ValueError(
                    f"rates must be finite non-negative numbers, got {value!r}"
                )
        if self.kind == "linear" and self.rate_end is None:
            raise ValueError("linear rate needs rate_end")

    @classmethod
    def constant(cls, rate: float) -> "RateFunction":
        return cls("constant", float(rate))

    @classmethod
    def linear(cls, rate0: float, rate1: float) -> "RateFunction":
        return cls("linear", float(rate0), float(rate1))

    def __call__(self, t: float, horizon: float) -> float:
        """Instantaneous intensity λ(t)."""
        if self.kind == "constant":
            return self.rate
        return self.rate + (self.rate_end - self.rate) * (t / horizon)

    def ceiling(self, horizon: float) -> float:
        """sup λ(t) over [0, horizon] — the thinning envelope rate."""
        if self.kind == "constant":
            return self.rate
        return max(self.rate, self.rate_end)

    def to_dict(self) -> dict:
        doc = {"kind": self.kind, "rate": self.rate}
        if self.rate_end is not None:
            doc["rate_end"] = self.rate_end
        return doc

    @classmethod
    def from_dict(cls, data: dict) -> "RateFunction":
        return cls(data["kind"], data["rate"], data.get("rate_end"))


# ---------------------------------------------------------------------------
# kinds and events
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DegradationKind:
    """One failure mode: a scenario, its arrival rate, and how long it lasts.

    ``duration=None`` means absorbing — once it arrives, the degradation
    persists to the end of the horizon (a lost node, a throttled GPU
    nobody resets mid-job). Neutral scenarios are canonicalised to
    ``None`` exactly like :class:`~repro.api.ScenarioSet` members, so a
    "degradation" that degrades nothing prices as the pristine machine.
    """

    name: str
    scenario: ClusterScenario | None
    rate: RateFunction
    duration: float | None = None

    def __post_init__(self):
        scenario = get_scenario(self.scenario)
        if scenario is not None and scenario.is_neutral:
            scenario = None
        object.__setattr__(self, "scenario", scenario)
        if self.duration is not None and not (
            isinstance(self.duration, (int, float))
            and math.isfinite(self.duration)
            and self.duration > 0
        ):
            raise ValueError(
                f"duration must be positive or None (absorbing), got {self.duration!r}"
            )

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "scenario": self.scenario.to_dict() if self.scenario else None,
            "rate": self.rate.to_dict(),
            "duration": self.duration,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "DegradationKind":
        scenario = data["scenario"]
        return cls(
            name=data["name"],
            scenario=ClusterScenario.from_dict(scenario) if scenario else None,
            rate=RateFunction.from_dict(data["rate"]),
            duration=data["duration"],
        )


@dataclass(frozen=True)
class ScenarioEvent:
    """One sampled arrival: a degradation starting at ``time``."""

    time: float
    kind: str
    scenario: ClusterScenario | None
    duration: float | None = None

    def end(self, horizon: float) -> float:
        """When the degradation clears (the horizon, if absorbing)."""
        if self.duration is None:
            return horizon
        return min(self.time + self.duration, horizon)

    def to_dict(self) -> dict:
        return {
            "time": self.time,
            "kind": self.kind,
            "scenario": self.scenario.to_dict() if self.scenario else None,
            "duration": self.duration,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioEvent":
        scenario = data["scenario"]
        return cls(
            time=data["time"],
            kind=data["kind"],
            scenario=ClusterScenario.from_dict(scenario) if scenario else None,
            duration=data["duration"],
        )


@dataclass(frozen=True)
class ScenarioTimeline:
    """One sampled realisation: events over ``[0, horizon]``.

    :meth:`exposure` is the bridge to the cost model — the time-weighted
    scenario mixture this timeline exposes the job to.
    """

    horizon: float
    events: tuple = ()

    def segments(self) -> tuple:
        """``(start, end, scenario_or_None)`` covering the horizon.

        Where events overlap, the most recently started one wins — the
        later arrival is the fresher machine condition (a link flap on
        an already-degraded ring reads as the flap until it clears).
        """
        cuts = {0.0, self.horizon}
        for ev in self.events:
            if ev.time < self.horizon:
                cuts.add(ev.time)
                cuts.add(ev.end(self.horizon))
        points = sorted(c for c in cuts if 0.0 <= c <= self.horizon)
        out = []
        for a, b in zip(points, points[1:]):
            active = [
                ev for ev in self.events if ev.time <= a and ev.end(self.horizon) > a
            ]
            scenario = max(active, key=lambda ev: ev.time).scenario if active else None
            out.append((a, b, scenario))
        return tuple(out)

    def exposure(self) -> tuple:
        """Time-weighted ``(scenario_or_None, weight)`` mixture, Σw = 1.

        Neutral first when present, then scenarios in order of first
        activity; adjacent segments under the same condition merge.
        """
        totals: dict = {}
        order: list = []
        for a, b, scenario in self.segments():
            key = scenario.name if scenario is not None else None
            if key not in totals:
                totals[key] = [scenario, 0.0]
                order.append(key)
            totals[key][1] += b - a
        if None in order:
            order.remove(None)
            order.insert(0, None)
        return tuple(
            (totals[k][0], totals[k][1] / self.horizon) for k in order
        )

    def to_dict(self) -> dict:
        return {
            "horizon": self.horizon,
            "events": [ev.to_dict() for ev in self.events],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioTimeline":
        return cls(
            horizon=data["horizon"],
            events=tuple(ScenarioEvent.from_dict(e) for e in data["events"]),
        )


# ---------------------------------------------------------------------------
# the process
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScenarioProcess:
    """A superposition of per-kind Poisson arrival processes.

    ``horizon`` is normalised job time (the MC layer weights batch
    times, so only ratios of durations to the horizon matter). An empty
    ``kinds`` tuple — or kinds at rate 0 — is the degenerate pristine
    process: every draw is the empty timeline and Monte-Carlo planning
    over it reproduces :meth:`Session.plan` bit-identically.

    >>> p = get_process("flaky-links")
    >>> t = p.sample(np.random.default_rng(0))
    >>> sum(w for _, w in t.exposure())
    1.0
    >>> p == ScenarioProcess.from_dict(p.to_dict())
    True
    """

    name: str
    kinds: tuple = ()
    horizon: float = 1.0

    def __post_init__(self):
        if not (
            isinstance(self.horizon, (int, float))
            and math.isfinite(self.horizon)
            and self.horizon > 0
        ):
            raise ValueError(f"horizon must be positive, got {self.horizon!r}")
        object.__setattr__(self, "kinds", tuple(self.kinds))
        names = [k.name for k in self.kinds]
        if len(set(names)) != len(names):
            raise ValueError(
                f"process {self.name!r} has duplicate kind names: {names}"
            )
        # a scenario's name labels its priced column and its exposure, so
        # two different scenarios under one name (or a degraded one named
        # like the pristine column) would be priced at each other's times
        by_name = {}
        for kind in self.kinds:
            scenario = kind.scenario
            if scenario is None:
                continue
            if scenario.name == "neutral":
                raise ValueError(
                    f"process {self.name!r}: kind {kind.name!r} degrades the "
                    "machine under the pristine label 'neutral'"
                )
            if by_name.setdefault(scenario.name, scenario) != scenario:
                raise ValueError(
                    f"process {self.name!r} has different scenarios under "
                    f"one name: {scenario.name!r}"
                )

    # -- sampling -------------------------------------------------------
    def _arrivals(self, rate: RateFunction, rng: np.random.Generator) -> list:
        """Thinning (Lewis-Shedler): homogeneous draws at the ceiling
        rate, each accepted with probability λ(t)/ceiling."""
        ceiling = rate.ceiling(self.horizon)
        if ceiling <= 0.0:
            return []
        times = []
        t = 0.0
        while True:
            t += rng.exponential(1.0 / ceiling)
            if t >= self.horizon:
                return times
            if rng.random() * ceiling <= rate(t, self.horizon):
                times.append(t)

    def sample(self, rng=None) -> ScenarioTimeline:
        """Draw one timeline. Kinds are sampled in declaration order from
        one generator, so a fixed seed pins the whole draw."""
        rng = resolve_rng(rng)
        events = []
        for kind in self.kinds:
            for t in self._arrivals(kind.rate, rng):
                events.append(
                    ScenarioEvent(
                        time=t,
                        kind=kind.name,
                        scenario=kind.scenario,
                        duration=kind.duration,
                    )
                )
        events.sort(key=lambda ev: (ev.time, ev.kind))
        return ScenarioTimeline(horizon=self.horizon, events=tuple(events))

    def sample_timelines(self, n: int, seed: int = 0) -> tuple:
        """``n`` independent draws from SeedSequence-spawned streams.

        Sample ``i`` is identical no matter how large ``n`` is (the
        prefix property) — the foundation of common-random-numbers
        pairing across candidates and of stable fixed-seed tests.
        """
        if n < 1:
            raise ValueError(f"need at least one sample, got {n}")
        return tuple(self.sample(g) for g in spawn_generators(seed, n))

    # -- introspection --------------------------------------------------
    @property
    def is_degenerate(self) -> bool:
        """True when no kind can ever fire (rate ceiling 0 everywhere)."""
        return all(k.rate.ceiling(self.horizon) <= 0.0 for k in self.kinds)

    def degrades_pipeline(self) -> bool:
        """True if any kind's scenario needs the event engine to price."""
        return any(
            k.scenario is not None and k.scenario.degrades_pipeline
            for k in self.kinds
        )

    def describe(self) -> str:
        if not self.kinds:
            return f"{self.name}: no degradations"
        parts = []
        for k in self.kinds:
            label = k.scenario.name if k.scenario is not None else "neutral"
            lam = k.rate.to_dict()
            rate = (
                f"{lam['rate']:g}"
                if lam["kind"] == "constant"
                else f"{lam['rate']:g}->{lam['rate_end']:g}"
            )
            dur = "absorbing" if k.duration is None else f"dur {k.duration:g}"
            parts.append(f"{k.name}({label}, rate {rate}, {dur})")
        return f"{self.name}: " + ", ".join(parts)

    # -- serialization --------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "horizon": self.horizon,
            "kinds": [k.to_dict() for k in self.kinds],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioProcess":
        return cls(
            name=data["name"],
            kinds=tuple(DegradationKind.from_dict(k) for k in data["kinds"]),
            horizon=data["horizon"],
        )


#: Named failure processes (the ``repro mc-plan --process`` choices).
PROCESSES: dict[str, ScenarioProcess] = {
    p.name: p
    for p in (
        # the degenerate pristine process — mc_robust_plan over it must
        # reproduce plan() bit-identically (the acceptance criterion)
        ScenarioProcess("calm", ()),
        # transient fabric trouble: ring links flap and recover — both
        # scenarios touch only collective knobs, so the whole candidate
        # grid prices through the analytic-batch array program
        ScenarioProcess(
            "flaky-links",
            (
                DegradationKind(
                    "link-flap",
                    scenario=SCENARIOS["slow-ring-link"],
                    rate=RateFunction.constant(2.0),
                    duration=0.15,
                ),
                DegradationKind(
                    "fabric-congestion",
                    scenario=SCENARIOS["degraded-ring"],
                    rate=RateFunction.constant(1.0),
                    duration=0.25,
                ),
            ),
        ),
        # a spot/preemptible pool: once capacity is yanked, the job runs
        # degraded (straggler + halved rings) for the rest of the horizon
        ScenarioProcess(
            "spot-preemption",
            (
                DegradationKind(
                    "preemption",
                    scenario=SCENARIOS["degraded"],
                    rate=RateFunction.constant(0.7),
                    duration=None,
                ),
            ),
        ),
        # wear-out arrivals: throttling becomes likelier as the job runs
        # (the inhomogeneous case — rate climbs 0 -> 2.5 over the job)
        ScenarioProcess(
            "aging-stragglers",
            (
                DegradationKind(
                    "thermal-throttle",
                    scenario=SCENARIOS["straggler"],
                    rate=RateFunction.linear(0.0, 2.5),
                    duration=None,
                ),
            ),
        ),
    )
}


def get_process(process) -> ScenarioProcess:
    """Resolve a process given by name or instance.

    >>> get_process("spot-preemption").kinds[0].duration is None
    True
    >>> sorted(PROCESSES)
    ['aging-stragglers', 'calm', 'flaky-links', 'spot-preemption']
    """
    if isinstance(process, ScenarioProcess):
        return process
    if isinstance(process, str):
        try:
            return PROCESSES[process]
        except KeyError:
            raise ValueError(
                f"unknown scenario process {process!r}; "
                f"named processes: {sorted(PROCESSES)}"
            ) from None
    raise TypeError(
        f"expected a ScenarioProcess or a named process; "
        f"got {type(process).__name__}"
    )
