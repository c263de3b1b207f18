"""Outside-in span tracing of the planner's layers.

:func:`install` wraps the public call of each layer from outside the
program: it rebinds the name where the caller looks it up (a method on
its class, or a function in every ``repro`` module that imported it)
and returns a function that puts every original back. Nothing under
``src/`` is edited.

Spans live in memory as ``[name, start, end, parent, request, on_client,
attrs]``. The parent is the innermost open span of the same thread; a
pool or rank thread with no open span of its own hangs its spans under
the client thread's innermost open span. A span's *self time* is its
duration minus the part of it that its children cover.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from collections import defaultdict

import numpy as np


class SpanRecorder:
    """In-memory spans plus counters, safe to feed from many threads."""

    def __init__(self):
        self.spans: list = []
        self.counts: dict = defaultdict(int)
        #: id of the request being served (set by the client loop)
        self.request = None
        self._lock = threading.Lock()
        self.local = threading.local()
        self._client = threading.get_ident()
        self._client_stack = self._stack()

    def _stack(self) -> list:
        stack = getattr(self.local, "stack", None)
        if stack is None:
            stack = self.local.stack = []
        return stack

    def parent(self):
        stack = self._stack() or self._client_stack
        return stack[-1] if stack else None

    def begin(self, name: str) -> int:
        span = [
            name, time.perf_counter(), None, self.parent(), self.request,
            threading.get_ident() == self._client, None,
        ]
        with self._lock:
            idx = len(self.spans)
            self.spans.append(span)
        self._stack().append(idx)
        return idx

    def end(self, idx: int, **attrs) -> None:
        span = self.spans[idx]
        span[2] = time.perf_counter()
        self._stack().pop()
        if attrs:
            span[6] = attrs

    def leaf(self, name: str, start: float, parent, **attrs) -> None:
        """A finished span that was never on the stack."""
        span = [
            name, start, time.perf_counter(), parent, self.request,
            threading.get_ident() == self._client, attrs or None,
        ]
        with self._lock:
            self.spans.append(span)

    def add(self, counter: str, n: int = 1) -> None:
        with self._lock:
            self.counts[counter] += n

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for i, (name, start, end, parent, request, _, attrs) in enumerate(
                self.spans
            ):
                fh.write(
                    json.dumps(
                        {
                            "id": i, "name": name, "start": start, "end": end,
                            "parent": parent, "request": request,
                            **({"attrs": attrs} if attrs else {}),
                        }
                    )
                    + "\n"
                )


# ---------------------------------------------------------------------------
# wrappers
# ---------------------------------------------------------------------------

def _timed(rec: SpanRecorder, name: str, fn, attrs=None):
    """Span around ``fn``; ``attrs(args, kwargs, result)`` tags it."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = rec.begin(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            rec.end(idx)
            raise
        rec.end(idx, **(attrs(args, kwargs, result) if attrs else {}))
        return result

    return wrapper


def _timed_generator(rec: SpanRecorder, name: str, fn):
    """Span from a generator's first step to its exhaustion, as a leaf."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        parent, start, n = rec.parent(), time.perf_counter(), 0
        for item in fn(*args, **kwargs):
            n += 1
            yield item
        rec.leaf(name, start, parent, count=n)

    return wrapper


def _priced(rec: SpanRecorder, fn):
    """Estimator span; rows are counted on the outermost call only."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        depth = getattr(rec.local, "price_depth", 0)
        rec.local.price_depth = depth + 1
        idx = rec.begin("estimator.price")
        cpu = time.thread_time()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            rec.end(idx)
            raise
        finally:
            rec.local.price_depth = depth
        if depth:
            rec.end(idx)
            return result
        rows = 1  # one config, or a configs x scenarios batch
        if hasattr(result, "n_configs"):
            rows = result.n_configs * result.n_scenarios
        rec.end(idx, rows=rows, cpu=time.thread_time() - cpu)
        return result

    return wrapper


def _executed(rec: SpanRecorder, name: str, fn):
    """Execution span that tags its thread's communication as SAMO/dense."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        previous = getattr(rec.local, "mode", "other")
        rec.local.mode = "samo" if kwargs.get("samo") else "dense"
        rec.add("exec.runs")
        idx = rec.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.end(idx)
            rec.local.mode = previous

    return wrapper


def _propagating(rec: SpanRecorder, fn):
    """``run_parallel`` whose rank threads inherit the caller's mode."""

    @functools.wraps(fn)
    def wrapper(size, worker, *args, **kwargs):
        mode = getattr(rec.local, "mode", "other")

        def ranked(comm, *extra):
            rec.local.mode = mode
            return worker(comm, *extra)

        return fn(size, ranked, *args, **kwargs)

    return wrapper


def _communicated(rec: SpanRecorder, fn, payload):
    """Count a communicator call and the bytes handed to it (outermost)."""

    @functools.wraps(fn)
    def wrapper(self, *args, **kwargs):
        depth = getattr(rec.local, "comm_depth", 0)
        rec.local.comm_depth = depth + 1
        try:
            return fn(self, *args, **kwargs)
        finally:
            rec.local.comm_depth = depth
            if not depth:
                mode = getattr(rec.local, "mode", "other")
                array = payload(args, kwargs)
                rec.add(f"comm.calls.{mode}")
                if array is not None:
                    rec.add(f"comm.bytes.{mode}", int(np.asarray(array).nbytes))

    return wrapper


def _counted_events(rec: SpanRecorder, fn):
    """``EventLoop.run`` counting the events it processed (no span)."""

    @functools.wraps(fn)
    def wrapper(self, *args, **kwargs):
        before = self.events_processed
        try:
            return fn(self, *args, **kwargs)
        finally:
            rec.add("sim.events", self.events_processed - before)

    return wrapper


def _arg(position: int, name: str):
    def get(args, kwargs):
        return args[position] if len(args) > position else kwargs.get(name)

    return get


# ---------------------------------------------------------------------------
# installation
# ---------------------------------------------------------------------------

def _rewrap(raw, make):
    """Wrap the function inside a class attribute, keeping its kind."""
    if isinstance(raw, property):
        return property(make(raw.fget))
    if isinstance(raw, classmethod):
        return classmethod(make(raw.__func__))
    return make(raw)


def install(rec: SpanRecorder):
    """Wrap every layer's public call; returns the restore function."""
    from repro.api.job import Job
    from repro.api.scenario_set import ScenarioSet
    from repro.api.session import RobustPlanResult, Session
    from repro.autotune import measured, result as plan_result
    from repro.autotune.batch import EvaluationBatch
    from repro.autotune.cache import evaluation_cache_key
    from repro.autotune.estimator import CostEstimator
    from repro.autotune.space import SearchSpace
    from repro.cluster.events import EventLoop
    from repro.comm.backend import Communicator
    from repro.parallel import placement, scenarios
    from repro.parallel.perf_model import BatchBreakdown
    from repro.serve.store import PersistentEvaluationStore
    from repro.stochastic.monte_carlo import MCRobustResult
    from repro.stochastic.process import ScenarioProcess

    saved: list = []

    def patch_attr(owner, attr: str, make) -> None:
        raw = owner.__dict__[attr]
        saved.append((owner, attr, raw))
        setattr(owner, attr, _rewrap(raw, make))

    def patch_function(fn, make) -> None:
        """Rebind ``fn`` in every loaded ``repro`` module that holds it."""
        wrapped = make(fn)
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] != "repro" or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    saved.append((module, attr, value))
                    setattr(module, attr, wrapped)

    def span(name, attrs=None):
        return lambda fn: _timed(rec, name, fn, attrs)

    for cls in (Job, ScenarioSet, ScenarioProcess):
        patch_attr(cls, "from_dict", span("serve.decode"))
    for op in ("plan", "robust_plan", "mc_robust_plan", "place", "breakdown"):
        patch_attr(Session, op, span(f"session.{op}"))
    patch_attr(
        SearchSpace, "candidates",
        lambda fn: _timed_generator(rec, "space.enumerate", fn),
    )
    patch_function(evaluation_cache_key, span("cache.key"))
    patch_attr(
        PersistentEvaluationStore, "get",
        span("cache.lookup", lambda a, k, r: {"hit": r is not None}),
    )
    patch_attr(PersistentEvaluationStore, "acquire", span("store.acquire"))
    patch_attr(PersistentEvaluationStore, "fulfil", span("store.fulfil"))
    patch_attr(
        PersistentEvaluationStore, "load",
        span("store.load", lambda a, k, r: {"loaded": r}),
    )
    estimators, todo = [], [CostEstimator]
    while todo:
        cls = todo.pop()
        estimators.append(cls)
        todo.extend(cls.__subclasses__())
    for cls in estimators:
        for attr in ("evaluate", "evaluate_batch"):
            if attr in cls.__dict__:
                patch_attr(cls, attr, lambda fn: _priced(rec, fn))
    patch_attr(EvaluationBatch, "evaluation", span("evaluation.materialize"))
    for cls in (plan_result.PlanResult, RobustPlanResult, MCRobustResult):
        patch_attr(cls, "feasible", span("result.rank"))
        patch_attr(cls, "best", span("result.rank"))
    for cls in (
        plan_result.PlanResult, RobustPlanResult, MCRobustResult,
        placement.PlacementResult, BatchBreakdown,
    ):
        patch_attr(cls, "to_dict", span("result.to_dict"))
    patch_attr(ScenarioProcess, "sample", span("stochastic.sample"))
    patch_attr(
        ScenarioProcess, "sample_timelines", span("stochastic.sample_timelines")
    )
    patch_function(scenarios.simulate_hetero_pipeline, span("sim.pipeline"))
    patch_function(scenarios.overlap_exposed_collective, span("sim.overlap"))
    patch_function(placement.place_replicas, span("placement.search"))
    patch_attr(EventLoop, "run", lambda fn: _counted_events(rec, fn))
    patch_function(
        measured.execute_pipeline, lambda fn: _executed(rec, "exec.pipeline", fn)
    )
    patch_function(
        measured.execute_grad_sync, lambda fn: _executed(rec, "exec.grad_sync", fn)
    )
    patch_function(measured.replay_events, span("exec.replay"))
    patch_attr(measured, "run_parallel", lambda fn: _propagating(rec, fn))
    for op, payload in (
        ("send", _arg(1, "array")),
        ("recv", lambda a, k: None),
        ("allreduce", _arg(0, "array")),
        ("bcast", _arg(0, "array")),
        ("allgather", _arg(0, "array")),
    ):
        patch_attr(
            Communicator, op, lambda fn, p=payload: _communicated(rec, fn, p)
        )

    def restore() -> None:
        for owner, attr, raw in reversed(saved):
            setattr(owner, attr, raw)
        saved.clear()

    return restore


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

#: span name -> the per-layer metric its self time lands in
LAYER_OF = {
    "request": "client.codec_ms",
    "client.encode": "client.codec_ms",
    "client.decode": "client.codec_ms",
    "serve.decode": "serve.decode_ms",
    "serve.handle": "serve.dispatch_ms",
    "serve.encode": "serve.encode_ms",
    "session.plan": "session.self_ms",
    "session.robust_plan": "session.self_ms",
    "session.mc_robust_plan": "session.self_ms",
    "session.place": "session.self_ms",
    "session.breakdown": "session.self_ms",
    "space.enumerate": "space.enumerate_ms",
    "cache.key": "cache.key_ms",
    "cache.lookup": "cache.lookup_ms",
    "store.acquire": "store.acquire_ms",
    "store.fulfil": "store.fulfil_ms",
    "store.load": "store.load_ms",
    "estimator.price": "estimator.price_ms",
    "evaluation.materialize": "evaluation.materialize_ms",
    "result.rank": "result.rank_ms",
    "result.to_dict": "result.to_dict_ms",
    "stochastic.sample": "stochastic.sample_ms",
    "stochastic.sample_timelines": "stochastic.sample_ms",
    "sim.pipeline": "sim.pipeline_ms",
    "sim.overlap": "sim.overlap_ms",
    "placement.search": "placement.search_ms",
    "exec.pipeline": "exec.pipeline_ms",
    "exec.grad_sync": "exec.grad_sync_ms",
    "exec.replay": "exec.replay_ms",
}


def _covered(intervals: list, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total, cursor = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans: list) -> list:
    """Each span's duration minus the time its children cover."""
    children = defaultdict(list)
    for name, start, end, parent, *_ in spans:
        if parent is not None and end is not None:
            children[parent].append((start, end))
    out = []
    for i, (name, start, end, *_rest) in enumerate(spans):
        if end is None:
            out.append(0.0)
            continue
        out.append((end - start) - _covered(children.get(i, []), start, end))
    return out


def _under(spans: list, idx: int, name: str) -> bool:
    parent = spans[idx][3]
    while parent is not None:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def layer_metrics(rec: SpanRecorder, n_requests: int) -> dict:
    """Per-layer metrics of one traced run.

    Every ``*_ms`` metric but ``store.load_ms`` is the layer's summed
    self time per request answered; ``store.load_ms`` is the total time
    spent loading snapshots, which happens during set-up.
    """
    spans = rec.spans
    selfs = self_times(spans)
    metrics = {name: 0.0 for name in set(LAYER_OF.values())}
    for (name, *_), dt in zip(spans, selfs):
        if name in LAYER_OF:
            metrics[LAYER_OF[name]] += dt
    for key in metrics:
        metrics[key] *= 1e3 if key == "store.load_ms" else 1e3 / max(n_requests, 1)

    def spans_named(name):
        return [i for i, s in enumerate(spans) if s[0] == name]

    lookups = spans_named("cache.lookup")
    hits = sum(1 for i in lookups if spans[i][6]["hit"])
    priced = [i for i in spans_named("estimator.price") if spans[i][6]]
    rows = sum(spans[i][6]["rows"] for i in priced)
    breakdown_rows = sum(
        spans[i][6]["rows"] for i in priced if _under(spans, i, "session.breakdown")
    )
    # pool parallelism: per pooled region (the worker-thread estimator
    # calls under one parent), the calls' summed thread CPU time over the
    # region's wall time; a thread waiting for the GIL burns no CPU time
    regions = defaultdict(list)
    for i in priced:
        name, start, end, parent, _, on_client, attrs = spans[i]
        if not on_client:
            regions[parent].append((start, end, attrs["cpu"]))
    busy = sum(cpu for region in regions.values() for _, _, cpu in region)
    wall = sum(
        max(e for _, e, _ in region) - min(s for s, _, _ in region)
        for region in regions.values()
    )
    metrics.update(
        {
            "space.candidates": sum(
                spans[i][6]["count"] for i in spans_named("space.enumerate")
            ),
            "cache.keys": len(spans_named("cache.key")),
            "cache.lookups": len(lookups),
            "cache.hits": hits,
            "cache.hit_ratio": hits / len(lookups) if lookups else 0.0,
            "store.loaded": sum(
                spans[i][6]["loaded"] for i in spans_named("store.load")
            ),
            "estimator.rows": rows,
            "estimator.breakdown_rows": breakdown_rows,
            "estimator.calls": len(priced),
            "evaluation.count": len(spans_named("evaluation.materialize")),
            "stochastic.timelines": len(spans_named("stochastic.sample")),
            "sim.calls": len(spans_named("sim.pipeline")),
            "sim.events": rec.counts["sim.events"],
            "pool.parallelism": busy / wall if wall > 0 else 0.0,
            "exec.runs": rec.counts["exec.runs"],
        }
    )
    for mode in ("samo", "dense"):
        metrics[f"comm.bytes.{mode}"] = rec.counts[f"comm.bytes.{mode}"]
        metrics[f"comm.calls.{mode}"] = rec.counts[f"comm.calls.{mode}"]
    return metrics
