"""The one front door to every cost-model entry point.

``Session`` binds a :class:`~repro.api.Machine` to an evaluation cache
and answers the questions the legacy surface scattered over
``simulate_batch`` kwargs, ``Planner``'s constructor, and CLI presets:

* :meth:`Session.breakdown` — the Figure-8 phase breakdown of one
  :class:`~repro.api.Job` (what ``simulate_batch`` computed);
* :meth:`Session.trace` — the event-driven 1F1B schedule trace of the
  job's pipeline (warmup/drain, message waits, per-replica placement);
* :meth:`Session.plan` — search the hybrid-parallel configuration space
  (what ``Planner`` ran), cache keys derived from the frozen
  Job/Machine value objects;
* :meth:`Session.robust_plan` — rank configurations by *expected* cost
  over a weighted :class:`~repro.api.ScenarioSet`, reporting worst-case
  cost alongside; evaluations are shared per (config, scenario) pair
  through the same cache, and a neutral-only set degenerates to
  :meth:`Session.plan` bit-identically;
* :meth:`Session.place` — optimize the data-parallel replica placement
  of the job's pipeline (never worse than the default block layout);
* :meth:`Session.mc_robust_plan` — Monte-Carlo robust ranking over a
  sampled failure process (:mod:`repro.stochastic`): N timelines,
  common random numbers across candidates, 95% confidence intervals;
* :meth:`Session.replan` — ride-vs-repair break-even pricing when a
  degradation arrives mid-job.

The job-level ``overlap``/``placement`` knobs thread through every
question: ``overlap=True`` prices the data-parallel all-reduce at its
event-timeline exposure behind the pipeline drain, and
``placement="best"`` prices the pipeline at the optimized replica
placement.

The legacy entry points (``simulate_batch``, ``Planner``, ``plan()``,
the CLI subcommands) remain as thin wrappers over this facade.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import os
import time
from dataclasses import dataclass, field

import numpy as np

from ..models.registry import get_spec
from ..models.spec import ModelSpec
from ..parallel.axonn import (
    FRAMEWORKS,
    _breakdown_engine,
    _framework_traits,
    _gpt_decomposition,
)
from ..parallel.perf_model import BatchBreakdown
from ..parallel.pipeline import PipelineTrace
from ..parallel.placement import PlacementResult, place_replicas
from ..parallel.scenarios import resolve_fidelity, simulate_hetero_pipeline
from ..autotune.cache import GLOBAL_CACHE, EvaluationCache, evaluation_cache_key
from ..autotune.config import CandidateConfig
from ..autotune.estimator import CostEstimator, Evaluation, make_estimator
from ..autotune.result import PlanResult
from ..autotune.space import SearchSpace
from ..obs import OBS, MetricsRegistry, Tracer, observed, write_chrome_trace
from ..reporting.tables import format_bytes, render_table
from .job import Job
from .machine import Machine
from .scenario_set import ScenarioSet, get_scenario_set

__all__ = ["Session", "RobustEvaluation", "RobustPlanResult"]


# ---------------------------------------------------------------------------
# robust-planning results
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RobustEvaluation:
    """One candidate costed across a whole scenario distribution."""

    config: CandidateConfig
    #: probability-weighted batch time over the set
    expected_time: float
    #: slowest batch time over the set, and the scenario that caused it
    worst_time: float
    worst_scenario: str
    #: scenario label -> batch time
    per_scenario: dict
    memory_bytes: int
    feasible: bool
    batch_size: int

    @property
    def expected_throughput(self) -> float:
        return self.batch_size / self.expected_time

    def as_row(self) -> dict:
        return {
            "framework": self.config.framework,
            "G_t": self.config.g_tensor,
            "G_i": self.config.g_inter,
            "G_d": self.config.g_data,
            "mbs": self.config.mbs,
            "E[time] (s)": round(self.expected_time, 3),
            "worst (s)": round(self.worst_time, 3),
            "worst case": self.worst_scenario,
            "E[tput] (smp/s)": round(self.expected_throughput, 1),
            "mem/GPU (GB)": round(self.memory_bytes / 1e9, 2),
        }

    def to_dict(self) -> dict:
        return {
            "config": self.config.to_dict(),
            "expected_time": self.expected_time,
            "worst_time": self.worst_time,
            "worst_scenario": self.worst_scenario,
            "per_scenario": dict(self.per_scenario),
            "memory_bytes": self.memory_bytes,
            "feasible": self.feasible,
            "batch_size": self.batch_size,
        }


@dataclass
class RobustPlanResult:
    """Outcome of one robust search over a scenario distribution."""

    model: str
    n_gpus: int
    fidelity: str
    budget_bytes: int
    scenario_set: ScenarioSet
    entries: list = field(default_factory=list)
    #: scenario label -> the per-scenario :class:`PlanResult`
    per_scenario: dict = field(default_factory=dict)
    #: accounting aggregated over the per-scenario searches (scenarios,
    #: candidates, evaluated, cache_hits, wall_seconds)
    stats: dict = field(default_factory=dict)

    @property
    def feasible(self) -> list:
        """Feasible candidates, best expected time first."""
        return sorted(
            (e for e in self.entries if e.feasible),
            key=lambda e: e.expected_time,
        )

    @property
    def best(self) -> RobustEvaluation:
        """Best expected-cost feasible configuration."""
        ranked = self.feasible
        if not ranked:
            raise RuntimeError(
                f"{self.model} on {self.n_gpus} GPUs: no feasible configuration "
                f"within {format_bytes(self.budget_bytes)} per GPU"
            )
        return ranked[0]

    def best_worst_case(self) -> RobustEvaluation:
        """The minimax pick: smallest worst-case time over the set."""
        ranked = sorted(
            (e for e in self.entries if e.feasible), key=lambda e: e.worst_time
        )
        if not ranked:
            raise RuntimeError("no feasible configuration")
        return ranked[0]

    # ------------------------------------------------------------------
    def summary_table(self, top: int = 8) -> str:
        rows = [e.as_row() for e in self.feasible[:top]]
        if not rows:
            return "(no feasible configurations)"
        weights = ", ".join(
            f"{label}={w:.2f}"
            for label, w in zip(self.scenario_set.labels(), self.scenario_set.weights)
        )
        return render_table(
            rows,
            title=(
                f"Robust plan: {self.model} on {self.n_gpus} GPUs over "
                f"'{self.scenario_set.name}' ({weights})"
            ),
        )

    def report(self, top: int = 8) -> str:
        """Full human-readable robust-plan report (what the CLI prints)."""
        try:
            best = self.best
        except RuntimeError as err:
            return str(err)
        parts = [
            f"Best expected config for {self.model} on {self.n_gpus} GPUs "
            f"over scenario set '{self.scenario_set.name}': "
            f"{best.config.describe()}\n"
            f"  E[batch time] {best.expected_time:.2f} s "
            f"(worst {best.worst_time:.2f} s under '{best.worst_scenario}'), "
            f"E[throughput] {best.expected_throughput:.0f} samples/s, "
            f"memory {format_bytes(best.memory_bytes)}/GPU",
            self.summary_table(top=top),
        ]
        minimax = self.best_worst_case()
        if minimax.config != best.config:
            parts.append(
                f"Minimax (best worst-case) pick differs: "
                f"{minimax.config.describe()} — worst {minimax.worst_time:.2f} s "
                f"vs {best.worst_time:.2f} s for the expected-cost winner."
            )
        return "\n\n".join(parts)

    def to_dict(self) -> dict:
        """JSON-ready mapping of the full robust ranking."""
        feasible = self.feasible
        return {
            "model": self.model,
            "n_gpus": self.n_gpus,
            "fidelity": self.fidelity,
            "budget_bytes": self.budget_bytes,
            "scenario_set": self.scenario_set.to_dict(),
            "best": feasible[0].to_dict() if feasible else None,
            "entries": [e.to_dict() for e in self.entries],
            "stats": dict(self.stats),
        }


# ---------------------------------------------------------------------------
# the facade
# ---------------------------------------------------------------------------

class Session:
    """All cost-model entry points behind one object.

    A session owns a :class:`~repro.api.Machine` and an evaluation
    cache; every question asked through it reuses cached evaluations
    keyed on the frozen (machine, job-derived, config, scenario)
    identity.

    Every session also owns a :class:`~repro.obs.MetricsRegistry`: each
    operation runs under :func:`repro.obs.observed` with the session's
    registry installed, so :meth:`metrics` answers cache hit-rates,
    per-fidelity call counts and wall-time latency histograms without
    any opt-in. Span tracing *is* opt-in — pass ``trace_to="out.json"``
    and every operation's virtual-time schedule (stages, links,
    allreduce buckets) plus wall-time session spans are flushed to a
    Chrome/Perfetto-loadable trace after each call.
    """

    def __init__(
        self,
        machine: Machine | None = None,
        cache: EvaluationCache | None = None,
        max_workers: int | None = None,
        trace_to: str | None = None,
    ):
        self.machine = machine if machine is not None else Machine()
        self.cache = GLOBAL_CACHE if cache is None else cache
        if max_workers is None:
            max_workers = min(8, (os.cpu_count() or 2))
        elif max_workers < 1:
            # 0 used to fall through `max_workers or ...` to the default
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        self.max_workers = max_workers
        self.trace_to = trace_to
        self.registry = MetricsRegistry()
        self.tracer: Tracer | None = Tracer() if trace_to else None

    # -- observability ------------------------------------------------------
    def metrics(self) -> dict:
        """Flat JSON-ready snapshot of every session metric."""
        return self.registry.snapshot()

    def metrics_text(self) -> str:
        """Prometheus-style text rendering of the session metrics."""
        return self.registry.render_prometheus()

    @contextlib.contextmanager
    def _op(self, name: str):
        """Run one public operation under the session's observability.

        Installs the session registry (and tracer, when ``trace_to`` was
        given) into the process-wide :data:`~repro.obs.OBS`, times the
        operation into ``session.op_seconds{op=...}``, and flushes the
        accumulated spans to ``trace_to`` on exit. Nestable —
        ``robust_plan`` re-enters through its per-scenario ``plan``
        calls and the inner exit restores the outer state.
        """
        t0 = time.perf_counter()
        with observed(tracer=self.tracer, metrics=self.registry):
            try:
                yield
            finally:
                self.registry.counter("session.ops", {"op": name}).inc()
                self.registry.histogram("session.op_seconds", {"op": name}).observe(
                    time.perf_counter() - t0
                )
                if self.trace_to and self.tracer is not None:
                    write_chrome_trace(self.trace_to, self.tracer.spans)

    # -- shared plumbing ----------------------------------------------------
    def _resolve_spec(self, job: Job, spec: ModelSpec | None) -> ModelSpec:
        """The job's registered model, or an explicit spec override
        (the escape hatch legacy wrappers use for unregistered specs)."""
        return spec if spec is not None else get_spec(job.model)

    # -- single-config questions -------------------------------------------
    def breakdown(
        self, job: Job, scenario=None, *, spec: ModelSpec | None = None
    ) -> BatchBreakdown:
        """Figure-8 phase breakdown of one training batch of ``job``.

        >>> from repro.api import Job, Machine, Session
        >>> b = Session(Machine.summit()).breakdown(
        ...     Job(model="gpt3-xl", n_gpus=64, framework="axonn+samo"))
        >>> (b.config.g_inter, b.config.g_data)
        (1, 64)
        >>> b.total == b.compute + b.p2p + b.bubble + b.collective + b.other
        True
        """
        spec = self._resolve_spec(job, spec)
        fidelity, scenario = resolve_fidelity(
            job.fidelity, scenario, overlap=job.overlap, placement=job.placement
        )
        with self._op("breakdown"):
            if fidelity in ("analytic", "sim"):
                return _breakdown_engine(
                    spec,
                    n_gpus=job.n_gpus,
                    framework=job.framework,
                    sparsity=job.sparsity,
                    mbs=job.mbs,
                    cal=self.machine.cal,
                    fidelity=fidelity,
                    scenario=scenario,
                    partition_mode=job.partition_mode,
                    overlap=job.overlap,
                    placement=job.placement,
                )
            # registry fidelities (measured, analytic-batch, plugins):
            # price the job's paper-protocol decomposition through the
            # registered estimator instead of the legacy engine switch
            from ..autotune.drift import candidate_for_workload
            from ..autotune.estimator import make_estimator

            estimator = make_estimator(
                fidelity,
                spec,
                self.machine.cal,
                scenario=scenario,
                partition_mode=job.partition_mode,
                overlap=job.overlap,
                placement=job.placement,
            )
            config = candidate_for_workload(
                spec,
                job.framework,
                job.n_gpus,
                sparsity=job.sparsity,
                mbs=job.mbs,
                cal=self.machine.cal,
            )
            return estimator.evaluate(config).breakdown

    def trace(
        self, job: Job, scenario=None, *, spec: ModelSpec | None = None
    ) -> PipelineTrace:
        """Event-driven 1F1B schedule trace of the job's pipeline.

        Always runs the Figure-3 engine (a trace *is* the event-driven
        schedule); the job's fidelity only participates in the shared
        conflict validation, so an explicit ``analytic`` job with a
        scenario raises here like everywhere else.

        >>> from repro.api import Job, Machine, Session
        >>> t = Session(Machine.summit()).trace(
        ...     Job(model="gpt3-2.7b", n_gpus=16))
        >>> (t.g_inter, t.n_replicas)
        (8, 2)
        >>> t.makespan > 0 and t.mean_idle_time() > 0
        True
        """
        spec = self._resolve_spec(job, spec)
        fidelity, scenario = resolve_fidelity(
            job.fidelity, scenario, default="sim",
            overlap=job.overlap, placement=job.placement,
        )
        if fidelity not in ("analytic", "sim"):
            raise ValueError(
                f"unknown pipeline_fidelity {fidelity!r}; "
                "choose 'analytic' or 'sim'"
            )
        if spec.family == "cnn":
            raise ValueError(
                f"{spec.name} runs pure data parallel (no pipeline to trace)"
            )
        traits = _framework_traits(job.framework)
        cal = self.machine.cal
        g_inter, _g_data, m, t_f, t_b = _gpt_decomposition(
            spec, traits, job.n_gpus, job.sparsity, job.mbs, cal
        )
        with self._op("trace"):
            return simulate_hetero_pipeline(
                spec,
                g_inter=g_inter,
                m=m,
                mbs=job.mbs,
                t_f_model=t_f * g_inter,
                t_b_model=t_b * g_inter,
                n_gpus=job.n_gpus,
                cal=cal,
                scenario=scenario,
                blocking_sends=job.framework == "deepspeed-3d",
                partition_mode=job.partition_mode,
                placement=job.placement,
            )

    def place(
        self,
        job: Job,
        scenario=None,
        *,
        spec: ModelSpec | None = None,
        swap_sweeps: int = 2,
    ) -> PlacementResult:
        """Optimize the replica placement of ``job``'s pipeline.

        Searches assignments of pipeline-stage ranks to data-parallel
        replicas (greedy node packing + local swaps over
        :meth:`Topology.replica_pipeline_ranks`-style chains), minimizing
        the slowest replica's chain time under ``scenario``. The result
        is **never worse than the default block layout** — when nothing
        beats it, the block layout is returned.

        >>> from repro.api import Job, Machine, Session
        >>> res = Session(Machine.summit()).place(
        ...     Job(model="gpt3-2.7b", n_gpus=16))
        >>> res.makespan <= res.default_makespan
        True
        >>> res.placement.n_replicas == res.default_placement.n_replicas
        True
        """
        spec = self._resolve_spec(job, spec)
        _fidelity, scenario = resolve_fidelity(
            job.fidelity, scenario, default="sim",
            overlap=job.overlap, placement=job.placement,
        )
        if spec.family == "cnn":
            raise ValueError(
                f"{spec.name} runs pure data parallel (no pipeline to place)"
            )
        traits = _framework_traits(job.framework)
        cal = self.machine.cal
        g_inter, _g_data, m, t_f, t_b = _gpt_decomposition(
            spec, traits, job.n_gpus, job.sparsity, job.mbs, cal
        )
        with self._op("place"):
            return place_replicas(
                spec,
                g_inter=g_inter,
                m=m,
                mbs=job.mbs,
                t_f_model=t_f * g_inter,
                t_b_model=t_b * g_inter,
                n_gpus=job.n_gpus,
                cal=cal,
                scenario=scenario,
                blocking_sends=job.framework == "deepspeed-3d",
                partition_mode=job.partition_mode,
                swap_sweeps=swap_sweeps,
            )

    # -- search questions ---------------------------------------------------
    def plan(
        self,
        job: Job,
        scenario=None,
        *,
        frameworks: tuple = FRAMEWORKS,
        microbatch_sizes: tuple = (1, 2, 4),
        explore_no_checkpoint: bool = True,
        spec: ModelSpec | None = None,
    ) -> PlanResult:
        """Search the configuration space for ``job``'s workload.

        The job contributes model, GPU count, sparsity, fidelity,
        partition mode, and the overlap/placement costing knobs; the
        search axes (frameworks, microbatch sizes, checkpointing) stay
        free kwargs because they enumerate the space rather than
        identify the workload.

        >>> from repro.api import Job, Machine, Session
        >>> plan = Session(Machine.summit()).plan(
        ...     Job(model="gpt3-xl", n_gpus=64))
        >>> plan.best.config.framework
        'axonn+samo'
        >>> plan.best.total_time <= plan.feasible[-1].total_time
        True
        """
        spec = self._resolve_spec(job, spec)
        fidelity, scenario = resolve_fidelity(
            job.fidelity, scenario, overlap=job.overlap, placement=job.placement
        )
        space = SearchSpace(
            spec=spec,
            n_gpus=job.n_gpus,
            frameworks=frameworks,
            sparsities=(job.sparsity,),
            microbatch_sizes=microbatch_sizes,
            explore_no_checkpoint=explore_no_checkpoint,
            cal=self.machine.cal,
        )
        estimator = make_estimator(
            fidelity,
            spec,
            self.machine.cal,
            scenario=scenario,
            partition_mode=job.partition_mode,
            overlap=job.overlap,
            placement=job.placement,
        )
        from ..autotune.search import PlannerStats  # deferred: search wraps the api

        with self._op("plan"):
            return self._evaluate_space(
                spec, space, estimator, job.n_gpus, PlannerStats(),
                partition_mode=job.partition_mode,
            )

    def robust_plan(
        self,
        job: Job,
        scenarios,
        *,
        frameworks: tuple = FRAMEWORKS,
        microbatch_sizes: tuple = (1, 2, 4),
        explore_no_checkpoint: bool = True,
        spec: ModelSpec | None = None,
    ) -> RobustPlanResult:
        """Rank configurations by expected cost over a scenario set.

        Runs one :meth:`plan` per scenario in the set — every
        (config, scenario) evaluation lands in the shared cache, so
        re-planning the same distribution (or any overlapping one) costs
        nothing — then aggregates per candidate: probability-weighted
        expected time and the worst case with its culprit scenario. A
        neutral-only set reproduces :meth:`plan`'s ranking bit-exactly.

        >>> from repro.api import Job, Machine, Session
        >>> res = Session(Machine.summit()).robust_plan(
        ...     Job(model="gpt3-xl", n_gpus=64), "neutral")
        >>> res.best.worst_scenario
        'neutral'
        >>> res.best.expected_time == res.best.worst_time
        True
        """
        spec = self._resolve_spec(job, spec)
        sset = get_scenario_set(scenarios)
        fidelity = job.fidelity
        if fidelity is None:
            # one coherent fidelity for the whole set: degraded members —
            # or an overlap/placement job knob — need the event engine; a
            # neutral-only set without those knobs keeps the default
            needs_engine = (
                not sset.is_neutral_only or job.overlap or job.placement != "block"
            )
            fidelity = "sim" if needs_engine else "analytic"
        job = job.with_(fidelity=fidelity)

        per_scenario: dict[str, PlanResult] = {}
        with self._op("robust_plan"):
            try:
                probe = make_estimator(
                    fidelity, spec, self.machine.cal,
                    partition_mode=job.partition_mode,
                    overlap=job.overlap, placement=job.placement,
                )
            except Exception:
                # contradictions (e.g. analytic + overlap) surface with
                # their canonical message from the per-scenario loop below
                probe = None
            if probe is not None and getattr(probe, "supports_batch", False):
                per_scenario = self._robust_matrix(
                    job, spec, list(sset.labels()), list(sset.scenarios), probe,
                    frameworks=frameworks,
                    microbatch_sizes=microbatch_sizes,
                    explore_no_checkpoint=explore_no_checkpoint,
                )
            else:
                for label, (sc, _w) in zip(sset.labels(), sset.items()):
                    per_scenario[label] = self.plan(
                        job,
                        scenario=sc,
                        frameworks=frameworks,
                        microbatch_sizes=microbatch_sizes,
                        explore_no_checkpoint=explore_no_checkpoint,
                        spec=spec,
                    )

        entries = []
        labels = list(sset.labels())
        first = per_scenario[labels[0]]
        by_config = {
            label: {e.config: e for e in res.evaluations}
            for label, res in per_scenario.items()
        }
        # one (config, scenario) time matrix; expected/worst reduce as
        # array ops regardless of which path priced the cells
        times = np.array(
            [
                [by_config[label][ev.config].total_time for label in labels]
                for ev in first.evaluations
            ]
        )
        if len(labels) == 1:
            # exact degeneration: no float round-trip through the dot
            expected_arr = times[:, 0]
        else:
            expected_arr = times @ np.asarray(sset.weights)
        # argmax picks the first maximum, like max() over labels in order
        worst_idx = np.argmax(times, axis=1)
        for r, ev in enumerate(first.evaluations):
            worst_label = labels[int(worst_idx[r])]
            entries.append(
                RobustEvaluation(
                    config=ev.config,
                    expected_time=float(expected_arr[r]),
                    worst_time=float(times[r, worst_idx[r]]),
                    worst_scenario=worst_label,
                    per_scenario={
                        label: float(times[r, j])
                        for j, label in enumerate(labels)
                    },
                    memory_bytes=ev.memory_bytes,
                    feasible=all(
                        by_config[label][ev.config].feasible for label in labels
                    ),
                    batch_size=ev.batch_size,
                )
            )
        return RobustPlanResult(
            model=spec.name,
            n_gpus=job.n_gpus,
            # the job-level fidelity, not a per-scenario estimator label
            # like "sim@straggler" — this result spans the whole set
            fidelity=fidelity,
            budget_bytes=self.machine.gpu_memory_bytes,
            scenario_set=sset,
            entries=entries,
            per_scenario=per_scenario,
            stats={
                "scenarios": len(labels),
                "candidates": sum(r.stats.candidates for r in per_scenario.values()),
                "evaluated": sum(r.stats.evaluated for r in per_scenario.values()),
                "cache_hits": sum(r.stats.cache_hits for r in per_scenario.values()),
                "wall_seconds": round(
                    sum(r.stats.wall_seconds for r in per_scenario.values()), 4
                ),
            },
        )

    def _robust_matrix(
        self,
        job: Job,
        spec: ModelSpec,
        labels: list,
        columns: list,
        estimator: CostEstimator,
        *,
        frameworks: tuple,
        microbatch_sizes: tuple,
        explore_no_checkpoint: bool,
    ) -> dict[str, PlanResult]:
        """Price the full config × scenario matrix in ONE batch call.

        ``labels``/``columns`` name the scenario columns (a
        :class:`ScenarioSet`'s members for :meth:`robust_plan`, a
        :class:`~repro.stochastic.ScenarioProcess`'s reachable scenarios
        for :meth:`mc_robust_plan`). The scalar path runs one
        :meth:`plan` per scenario; a batch-capable estimator prices
        every cache-missing cell of the whole matrix at once instead,
        then back-fills only the missing cells into the shared cache
        (hit cells keep their cached evaluations). Per-label
        :class:`PlanResult`\\ s come out with the same evaluation
        ordering and accounting a per-scenario loop would produce, so a
        neutral-only column list degenerates to :meth:`plan`
        bit-identically.
        """
        from ..autotune.search import PlannerStats  # deferred: search wraps the api

        t0 = time.perf_counter()
        fidelity = estimator.fidelity
        space = SearchSpace(
            spec=spec,
            n_gpus=job.n_gpus,
            frameworks=frameworks,
            sparsities=(job.sparsity,),
            microbatch_sizes=microbatch_sizes,
            explore_no_checkpoint=explore_no_checkpoint,
            cal=self.machine.cal,
        )
        candidates = list(space.candidates())

        evaluations: dict[str, dict[CandidateConfig, Evaluation]] = {
            label: {} for label in labels
        }
        keys: dict[tuple[CandidateConfig, str], tuple] = {}
        missing: dict[CandidateConfig, set[str]] = {}
        for config in candidates:
            for label, col in zip(labels, columns):
                key = evaluation_cache_key(
                    self.machine, spec, fidelity, config,
                    scenario=col, partition_mode=job.partition_mode,
                )
                keys[(config, label)] = key
                cached = self.cache.get(key)
                if cached is not None:
                    evaluations[label][config] = cached
                else:
                    missing.setdefault(config, set()).add(label)

        metrics = OBS.metrics
        n_cells = len(candidates) * len(labels)
        n_misses = sum(len(v) for v in missing.values())
        metrics.counter("planner.candidates").inc(n_cells)
        metrics.counter("planner.cache.hits").inc(n_cells - n_misses)
        metrics.counter("planner.cache.misses").inc(n_misses)

        # single-flight stores coalesce cells another request is already
        # pricing: we evaluate only the cells we own, then collect the
        # rest from their owners' flights
        single_flight = getattr(self.cache, "supports_single_flight", False)
        flights: dict = {}
        missing_owned = missing
        if missing and single_flight:
            flat = [
                keys[(config, label)]
                for config in candidates
                if config in missing
                for label in labels
                if label in missing[config]
            ]
            owned_keys, flights, ready = self.cache.acquire(flat)
            if flights:
                metrics.counter("serve.inflight_coalesced").inc(len(flights))
            owned_set = set(owned_keys)
            missing_owned = {}
            for config, labs in missing.items():
                owned_labs = {
                    lab for lab in labs if keys[(config, lab)] in owned_set
                }
                if owned_labs:
                    missing_owned[config] = owned_labs
            by_key = {key: cl for cl, key in keys.items()}
            for key, ev in ready.items():
                config, label = by_key[key]
                evaluations[label][config] = ev

        miss_configs = [c for c in candidates if c in missing_owned]
        if miss_configs:
            calls = metrics.counter("estimator.calls", {"fidelity": fidelity})
            latency = metrics.histogram(
                "estimator.evaluate_seconds", {"fidelity": fidelity}
            )
            try:
                t = time.perf_counter()
                batch = estimator.evaluate_batch(miss_configs, scenarios=columns)
                dt = time.perf_counter() - t
                latency.observe(dt)
                calls.inc()
                metrics.counter(
                    "estimator.batch_rows", {"fidelity": fidelity}
                ).inc(len(miss_configs) * len(columns))
                if OBS.enabled:
                    OBS.tracer.record(
                        "estimator.evaluate_batch", t, t + dt,
                        category="robust_plan",
                        rows=len(miss_configs), scenarios=len(columns),
                    )
                for i, config in enumerate(miss_configs):
                    for j, label in enumerate(labels):
                        if label not in missing_owned[config]:
                            continue
                        ev = batch.evaluation(i, j)
                        key = keys[(config, label)]
                        if single_flight:
                            self.cache.fulfil(key, ev)
                        else:
                            self.cache.put(key, ev)
                        evaluations[label][config] = ev
            except BaseException as err:
                if single_flight:
                    for config, labs in missing_owned.items():
                        for lab in labs:
                            self.cache.abandon(keys[(config, lab)], err)
                raise
        for key, flight in flights.items():
            config, label = by_key[key]
            evaluations[label][config] = flight.result()

        wall = (time.perf_counter() - t0) / len(labels)
        per_scenario: dict[str, PlanResult] = {}
        for label in labels:
            stats = PlannerStats()
            stats.candidates = len(candidates)
            stats.pruned_memory = space.stats.pruned_memory
            stats.pruned_branches = space.stats.pruned_branches
            evaluated = sum(
                1 for c in miss_configs if label in missing_owned[c]
            )
            stats.evaluated = evaluated
            stats.cache_hits = len(candidates) - evaluated
            stats.wall_seconds = wall
            # candidate order, whichever cells were warm — exactly like
            # _evaluate_space, so orderings agree across the two paths
            column = evaluations[label]
            per_scenario[label] = PlanResult(
                model=spec.name,
                n_gpus=job.n_gpus,
                fidelity=fidelity,
                budget_bytes=self.machine.gpu_memory_bytes,
                evaluations=[column[c] for c in candidates],
                stats=stats,
            )
        return per_scenario

    # -- stochastic questions -----------------------------------------------
    def mc_robust_plan(
        self,
        job: Job,
        process,
        *,
        samples: int = 32,
        seed: int = 0,
        crn: bool = True,
        frameworks: tuple = FRAMEWORKS,
        microbatch_sizes: tuple = (1, 2, 4),
        explore_no_checkpoint: bool = True,
        spec: ModelSpec | None = None,
    ):
        """Monte-Carlo robust plan over a sampled failure process.

        Draws ``samples`` degradation timelines from ``process`` (a
        :class:`~repro.stochastic.ScenarioProcess` or a name from
        :data:`~repro.stochastic.PROCESSES`), prices every candidate on
        every draw — by common random numbers across candidates unless
        ``crn=False`` — and ranks by mean cost with 95% confidence
        intervals; statistically tied leaders are flagged. A process
        that can never fire degenerates to :meth:`plan` bit-identically.

        >>> from repro.api import Job, Machine, Session
        >>> res = Session(Machine.summit()).mc_robust_plan(
        ...     Job(model="gpt3-xl", n_gpus=16), "calm", samples=4, seed=7)
        >>> res.best.std_time == 0.0
        True
        >>> res.fidelity
        'analytic'
        """
        from ..stochastic.monte_carlo import run_mc_robust_plan

        spec = self._resolve_spec(job, spec)
        with self._op("mc_robust_plan"):
            return run_mc_robust_plan(
                self, job, process,
                samples=samples, seed=seed, crn=crn,
                frameworks=frameworks,
                microbatch_sizes=microbatch_sizes,
                explore_no_checkpoint=explore_no_checkpoint,
                spec=spec,
            )

    def replan(
        self,
        job: Job,
        failure,
        *,
        at: float = 0.5,
        horizon_batches: float = 500.0,
        migration_seconds: float | None = None,
        spec: ModelSpec | None = None,
    ):
        """Ride out a mid-job failure, or pay a migration to repair?

        ``failure`` is a scenario (name or instance) — or a sampled
        :class:`~repro.stochastic.ScenarioEvent`, which carries its own
        arrival time. Prices "keep the configuration" against
        time-balanced re-partitioning, optimized re-placement, and both,
        each charged ``migration_seconds`` (default: one stage's fp16
        parameter shard over the calibrated inter-node link), and
        returns the break-even :class:`~repro.stochastic.ReplanDecision`.

        >>> from repro.api import Job, Machine, Session
        >>> d = Session(Machine.summit()).replan(
        ...     Job(model="gpt3-2.7b", n_gpus=16), "straggler", at=0.5)
        >>> d.remaining_batches
        250.0
        >>> d.ride_seconds >= min(o.total_seconds for o in d.options) \\
        ...     or d.decision == "ride"
        True
        """
        from ..stochastic.replan import run_replan

        spec = self._resolve_spec(job, spec)
        with self._op("replan"):
            return run_replan(
                self, job, failure,
                at=at,
                horizon_batches=horizon_batches,
                migration_seconds=migration_seconds,
                spec=spec,
            )

    # -- the search loop (shared with the legacy Planner) -------------------
    def _evaluate_space(
        self,
        spec: ModelSpec,
        space: SearchSpace,
        estimator: CostEstimator,
        n_gpus: int,
        stats,
        partition_mode: str = "flops",
    ) -> PlanResult:
        """Enumerate, memoise, evaluate concurrently, rank.

        Cache keys derive from the frozen Machine identity plus the
        estimator's fidelity label, scenario, and each config's
        canonical hash (:func:`~repro.autotune.cache.evaluation_cache_key`).
        """
        t0 = time.perf_counter()
        fidelity = estimator.fidelity
        candidates = list(space.candidates())
        stats.candidates = len(candidates)
        stats.pruned_memory = space.stats.pruned_memory
        stats.pruned_branches = space.stats.pruned_branches

        evaluations: dict[CandidateConfig, Evaluation] = {}
        misses: list[tuple[tuple, CandidateConfig]] = []
        scenario = getattr(estimator, "scenario", None)
        for config in candidates:
            key = evaluation_cache_key(
                self.machine, spec, fidelity, config,
                scenario=scenario, partition_mode=partition_mode,
            )
            cached = self.cache.get(key)
            if cached is not None:
                evaluations[config] = cached
                stats.cache_hits += 1
            else:
                misses.append((key, config))

        metrics = OBS.metrics
        metrics.counter("planner.candidates").inc(len(candidates))
        metrics.counter("planner.cache.hits").inc(len(candidates) - len(misses))
        metrics.counter("planner.cache.misses").inc(len(misses))

        if misses:
            # single-flight stores (repro.serve) hand each missing key to
            # exactly one concurrent request; everyone else waits on the
            # owner's in-flight evaluation instead of re-pricing it
            single_flight = getattr(self.cache, "supports_single_flight", False)
            if single_flight:
                owned_keys, flights, ready = self.cache.acquire(
                    [k for k, _ in misses]
                )
                if flights:
                    metrics.counter("serve.inflight_coalesced").inc(len(flights))
            else:
                owned_keys, flights, ready = [k for k, _ in misses], {}, {}
            results: dict[tuple, Evaluation] = dict(ready)
            owned_set = set(owned_keys)
            owned = [(k, c) for k, c in misses if k in owned_set]
            stats.evaluated = len(owned)
            stats.cache_hits += len(misses) - len(owned)

            def publish(key: tuple, ev: Evaluation) -> None:
                if single_flight:
                    self.cache.fulfil(key, ev)
                else:
                    self.cache.put(key, ev)
                results[key] = ev

            if owned:
                calls = metrics.counter("estimator.calls", {"fidelity": fidelity})
                latency = metrics.histogram(
                    "estimator.evaluate_seconds", {"fidelity": fidelity}
                )
                try:
                    if getattr(estimator, "supports_batch", False):
                        # vectorized path: price every miss in ONE call,
                        # then back-fill the shared cache cell-by-cell so a
                        # later scalar run (or the reverse) interconverts
                        t = time.perf_counter()
                        batch = estimator.evaluate_batch(c for _, c in owned)
                        dt = time.perf_counter() - t
                        latency.observe(dt)
                        calls.inc()
                        metrics.counter(
                            "estimator.batch_rows", {"fidelity": fidelity}
                        ).inc(len(owned))
                        if OBS.enabled:
                            OBS.tracer.record(
                                "estimator.evaluate_batch", t, t + dt,
                                category="plan", rows=len(owned),
                            )
                        for row, (key, _config) in enumerate(owned):
                            publish(key, batch.evaluation(row, 0))
                    else:
                        def evaluate(config: CandidateConfig) -> Evaluation:
                            t = time.perf_counter()
                            ev = estimator.evaluate(config)
                            latency.observe(time.perf_counter() - t)
                            calls.inc()
                            return ev

                        with concurrent.futures.ThreadPoolExecutor(
                            max_workers=self.max_workers
                        ) as pool:
                            for (key, _config), ev in zip(
                                owned, pool.map(evaluate, (c for _, c in owned))
                            ):
                                publish(key, ev)
                except BaseException as err:
                    if single_flight:
                        # wake coalesced waiters instead of hanging them
                        for key, _config in owned:
                            self.cache.abandon(key, err)
                    raise
            for key, flight in flights.items():
                results[key] = flight.result()
            for key, config in misses:
                evaluations[config] = results[key]

        stats.wall_seconds = time.perf_counter() - t0
        # hits landed during the candidate scan and misses after it; the
        # answer lists both in candidate order, so it does not depend on
        # which keys were warm or who priced them
        return PlanResult(
            model=spec.name,
            n_gpus=n_gpus,
            fidelity=fidelity,
            budget_bytes=self.machine.gpu_memory_bytes,
            evaluations=[evaluations[c] for c in candidates],
            stats=stats,
        )
