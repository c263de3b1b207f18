"""Event-driven simulation of the inter-layer (pipeline) schedule.

Reproduces the paper's Figure 3 mechanics: ``G_inter`` GPUs process ``m``
microbatches with 1F1B-style message-driven scheduling (backward work is
preferred when available — AxoNN's message-driven scheduler behaves this
way in steady state). Produces a full schedule trace for visualisation and
per-GPU busy/idle accounting whose idle time matches the paper's Eq. 6-7
bubble formula when messages are free and stages uniform.

Beyond the paper's uniform-stage setting the engine is
**heterogeneity-aware**: ``t_f_stage``/``t_b_stage`` accept per-stage
sequences (straggler GPUs, skewed flops partitions), ``msg_time`` accepts
a per-link sequence (NVLink hops inside a node vs InfiniBand hops across
nodes, derived from :meth:`repro.cluster.Topology.pipeline_link_times`),
and ``link_contention=True`` serializes messages that share a link
(half-duplex: the forward activation and backward gradient crossing the
same stage boundary queue behind each other).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from math import ceil, floor, inf
from typing import Callable, Sequence

from ..cluster.events import EventLoop
from ..obs import OBS

__all__ = ["TaskRecord", "PipelineTrace", "simulate_pipeline"]


@dataclass(frozen=True)
class TaskRecord:
    """One executed forward/backward task."""

    gpu: int
    kind: str  # 'F' or 'B'
    microbatch: int
    start: float
    end: float


@dataclass
class PipelineTrace:
    """Result of a pipeline simulation."""

    g_inter: int
    n_microbatches: int
    tasks: list[TaskRecord] = field(default_factory=list)
    makespan: float = 0.0
    #: per-GPU maximum of concurrently-held forward activations — the
    #: activation-memory proxy (1F1B bounds it at ``g_inter - stage``,
    #: GPipe-style unbounded scheduling lets it reach ``m``)
    peak_in_flight: list[int] = field(default_factory=list)
    #: the (possibly heterogeneous) per-stage compute times the run used
    t_f_stages: list[float] = field(default_factory=list)
    t_b_stages: list[float] = field(default_factory=list)
    #: per-link message transfer times (``g_inter - 1`` entries)
    link_times: list[float] = field(default_factory=list)
    #: per-link seconds the link spent occupied (contended runs only)
    link_busy: list[float] = field(default_factory=list)
    #: per-link recorded ``(start, end, label)`` transfer windows — the
    #: one source of truth both :meth:`ascii` (``links=True``) and the
    #: Chrome exporter render from
    link_windows: list[list[tuple[float, float, str]]] = field(default_factory=list)
    #: data-parallel replicas whose chains were priced to produce this
    #: trace (``simulate_hetero_pipeline`` keeps the slowest replica's
    #: schedule; a bare ``simulate_pipeline`` call is one chain)
    n_replicas: int = 1
    #: index of the replica whose chain this trace belongs to
    slowest_replica: int = 0

    def _hold_rows(self, tasks: list[tuple], link_windows: list[tuple]) -> None:
        """Hold the engine's compact rows in place of ``tasks``/``link_windows``.

        ``tasks`` rows are ``(gpu, kind, microbatch, start, end)``;
        ``link_windows`` rows are ``(link, start, end, kind, microbatch)``.
        Both lists are built from them the first time they are read.
        """
        d = self.__dict__
        del d["_tasks"], d["_link_windows"]
        d["_tasks_rows"], d["_link_windows_rows"] = tasks, link_windows

    def gpu_tasks(self, gpu: int) -> list[TaskRecord]:
        return sorted((t for t in self.tasks if t.gpu == gpu), key=lambda t: t.start)

    def busy_time(self, gpu: int) -> float:
        return sum(t.end - t.start for t in self.gpu_tasks(gpu))

    def idle_time(self, gpu: int) -> float:
        """Idle (bubble + message wait) within the batch span."""
        return self.makespan - self.busy_time(gpu)

    def mean_idle_time(self) -> float:
        return sum(self.idle_time(g) for g in range(self.g_inter)) / self.g_inter

    def max_idle_time(self) -> float:
        return max(self.idle_time(g) for g in range(self.g_inter))

    def ascii(self, time_unit: float, links: bool = False) -> str:
        """Render the schedule like the paper's Figure 3.

        Each column is ``time_unit`` seconds; forward cells print the
        microbatch id, backward cells print it bracketed. The column
        count rounds the makespan *up* so tasks ending inside a partial
        final interval still render. ``links=True`` adds one row per
        stage-boundary link rendered from the same recorded
        ``link_windows`` the Chrome exporter reads (``###`` marks an
        occupied column).
        """
        lines = []
        n_cols = max(1, ceil(self.makespan / time_unit - 1e-9))
        for g in range(self.g_inter):
            row = ["  ."] * n_cols
            for t in self.gpu_tasks(g):
                c0 = floor(t.start / time_unit + 1e-9)
                c1 = ceil(t.end / time_unit - 1e-9)
                for c in range(c0, min(c1, n_cols)):
                    cell = f"{t.microbatch:>3}" if t.kind == "F" else f"[{t.microbatch}]".rjust(3)
                    row[c] = cell
            lines.append(f"GPU {g}: " + "".join(row))
        if links:
            for i, windows in enumerate(self.link_windows):
                row = ["  ."] * n_cols
                for start, end, _label in windows:
                    c0 = floor(start / time_unit + 1e-9)
                    c1 = ceil(end / time_unit - 1e-9)
                    for c in range(c0, min(c1, n_cols)):
                        row[c] = "###"
                lines.append(f"LNK {i}: " + "".join(row))
        return "\n".join(lines)


def _built_on_read(name: str, build: Callable[[PipelineTrace, list], list]) -> property:
    """Field ``name`` as a list built from the engine's rows on first read.

    Assigning a list (the dataclass ``__init__`` does) stores it as given;
    :meth:`PipelineTrace._hold_rows` swaps it for compact rows, which
    the first read turns into the list and keeps. Values, types and
    equality are those of the list built eagerly.
    """
    slot, pending = f"_{name}", f"_{name}_rows"

    def get(self: PipelineTrace) -> list:
        d = self.__dict__
        try:
            return d[slot]
        except KeyError:
            # setdefault: concurrent first reads all get the one kept list
            return d.setdefault(slot, build(self, d[pending]))

    def set(self: PipelineTrace, value: list) -> None:
        self.__dict__[slot] = value

    return property(get, set)


def _tasks_from_rows(trace: PipelineTrace, rows: list[tuple]) -> list[TaskRecord]:
    return [TaskRecord(*row) for row in rows]


def _windows_from_rows(
    trace: PipelineTrace, rows: list[tuple]
) -> list[list[tuple[float, float, str]]]:
    windows: list[list[tuple[float, float, str]]] = [[] for _ in range(trace.g_inter - 1)]
    for i, start, end, kind, mb in rows:
        windows[i].append((start, end, f"{kind}{mb}"))
    return windows


PipelineTrace.tasks = _built_on_read("tasks", _tasks_from_rows)
PipelineTrace.link_windows = _built_on_read("link_windows", _windows_from_rows)


def _per_stage(value: float | Sequence[float], n: int, name: str) -> list[float]:
    """Normalise a scalar-or-sequence time parameter to ``n`` floats."""
    if isinstance(value, (int, float)):
        out = [float(value)] * n
    else:
        out = [float(v) for v in value]
        if len(out) != n:
            raise ValueError(f"{name} has {len(out)} entries, expected {n}")
    for v in out:
        if not 0.0 <= v < inf:  # NaN fails every comparison
            raise ValueError(f"{name} entries must be finite and non-negative, got {v}")
    return out


def simulate_pipeline(
    g_inter: int,
    n_microbatches: int,
    t_f_stage: float | Sequence[float],
    t_b_stage: float | Sequence[float],
    msg_time: float | Sequence[float] = 0.0,
    blocking_sends: bool = False,
    prefer_backward: bool = True,
    bound_in_flight: bool = True,
    link_contention: bool = False,
) -> PipelineTrace:
    """Simulate one batch through a ``g_inter``-stage pipeline.

    Parameters
    ----------
    g_inter:
        Pipeline depth (stages == GPUs).
    n_microbatches:
        Microbatches per batch shard (``m`` in the perf model).
    t_f_stage, t_b_stage:
        Per-stage forward/backward compute times of one microbatch.
        A scalar means uniform stages (the paper's setting); a sequence
        of length ``g_inter`` gives each stage its own time (straggler
        GPUs, skewed flops partitions).
    msg_time:
        Transfer time of one activation/gradient message between adjacent
        stages (0 isolates the pure bubble behaviour of Eq. 6-7). A
        sequence of length ``g_inter - 1`` prices each link separately
        (link ``i`` connects stages ``i`` and ``i + 1``).
    blocking_sends:
        AxoNN uses **asynchronous messaging** (paper Section II-E): a GPU
        hands its activation to the transport and immediately starts the
        next task (the default). With ``blocking_sends=True`` the sender
        stays busy for the transfer — the synchronous-pipeline behaviour
        AxoNN improves on.
    prefer_backward:
        AxoNN's **message-driven scheduling** prefers backward work in
        steady state (1F1B, the default). ``False`` processes work in
        plain arrival order, which delays downstream gradients and
        lengthens the drain phase.
    bound_in_flight:
        The 1F1B warmup window caps in-flight forwards at
        ``g_inter - stage`` (bounding activation memory). ``False``
        removes the cap — GPipe-style all-forwards-then-all-backwards,
        whose peak activation count grows with ``m`` instead.
    link_contention:
        Serialize messages sharing a stage-boundary link (half-duplex
        FIFO): a forward activation and a backward gradient crossing the
        same boundary — or two back-to-back sends from a stage faster
        than its link — queue instead of overlapping. The default keeps
        every transfer independent (full-duplex, infinite injection).

    All times must be finite and non-negative. The default configuration
    is AxoNN's; the flags exist so the scheduling ablation can price each
    optimization separately.

    The run is one :class:`~repro.cluster.events.EventLoop` drain. Its
    handlers (``try_start``, ``done``, ``arrive``, ``release``) are made
    once per run and receive their state as event arguments, and each
    task and transfer is recorded as one compact row that the trace
    turns into :class:`TaskRecord`\\ s and link windows when read.
    """
    if g_inter < 1 or n_microbatches < 1:
        raise ValueError("g_inter and n_microbatches must be >= 1")
    t_f = _per_stage(t_f_stage, g_inter, "t_f_stage")
    t_b = _per_stage(t_b_stage, g_inter, "t_b_stage")
    link = _per_stage(msg_time, max(g_inter - 1, 0), "msg_time") if g_inter > 1 else []

    loop = EventLoop()
    at = loop.at
    last = g_inter - 1
    # Ready work per stage, in arrival order: backward-first service keeps
    # forwards and backwards in two queues, FIFO service in one.
    fwd_ready = [deque() for _ in range(g_inter)]
    bwd_ready = [deque() for _ in range(g_inter)]
    arrivals: list[list[tuple[str, int]]] = [[] for _ in range(g_inter)]
    busy = [False] * g_inter
    in_flight = [0] * g_inter  # forwards not yet backwarded on this stage
    peak = [0] * g_inter
    # the 1F1B warmup window: in-flight forwards allowed per stage
    cap = [g_inter - g if bound_in_flight else inf for g in range(g_inter)]
    free_at = [0.0] * last  # contended links: when each is next free
    link_busy = [0.0] * last
    rows: list[tuple[int, str, int, float, float]] = []
    sends: list[tuple[int, float, float, str, int]] = []

    # Stage 0 starts with every microbatch available for forward.
    fwd_ready[0].extend(range(n_microbatches))
    arrivals[0] = [("F", mb) for mb in range(n_microbatches)]

    def try_start(g: int, now: float) -> None:
        """Start idle stage ``g``'s next task at ``now`` if it has work."""
        if prefer_backward:
            if bwd_ready[g]:
                kind, mb = "B", bwd_ready[g].popleft()
            elif fwd_ready[g] and in_flight[g] < cap[g]:
                kind, mb = "F", fwd_ready[g].popleft()
            else:
                return
        else:
            # Arrival-order service; a warmup-blocked forward at the head
            # lets later-arrived work run (no head-of-line deadlock).
            queue = arrivals[g]
            fwd_ok = in_flight[g] < cap[g]
            for i, (kind, mb) in enumerate(queue):
                if fwd_ok or kind == "B":
                    del queue[i]
                    break
            else:
                return
        busy[g] = True
        if kind == "F":
            in_flight[g] += 1
            if in_flight[g] > peak[g]:
                peak[g] = in_flight[g]
            end = now + t_f[g]
        else:
            end = now + t_b[g]
        at(end, done, g, kind, mb, now, end)

    def done(g: int, kind: str, mb: int, start: float, now: float) -> None:
        """Stage ``g`` finished computing: send the result on, free the stage."""
        if kind == "F":
            if g == last:
                # last stage: backward is ready the moment forward ends
                # (the stage is still busy, so it starts on release)
                arrive(g, "B", mb, now)
                release(g, kind, mb, start, now)
                return
            i, dest = g, g + 1
        elif g:
            i, dest = g - 1, g - 1
        else:
            release(g, kind, mb, start, now)
            return
        # Hand the message to the transport. Contended links book the
        # next FIFO window; otherwise the transfer starts immediately
        # (full-duplex, so the window is recorded without queueing).
        dur = link[i]
        if link_contention:
            begin = free_at[i] if free_at[i] > now else now
            arrival = free_at[i] = begin + dur
            link_busy[i] += dur
            if dur > 0:
                sends.append((i, begin, arrival, kind, mb))
        else:
            arrival = now + dur
            if arrival > now:
                sends.append((i, now, arrival, kind, mb))
        at(arrival, arrive, dest, kind, mb, arrival)
        if blocking_sends:
            # Synchronous send: the GPU stays occupied (and its task
            # record extends) until the transfer completes.
            at(arrival, release, g, kind, mb, start, arrival)
        else:
            release(g, kind, mb, start, now)

    def arrive(g: int, kind: str, mb: int, now: float) -> None:
        """Work for stage ``g`` became ready at ``now``; start it if idle."""
        if not prefer_backward:
            arrivals[g].append((kind, mb))
        elif kind == "F":
            fwd_ready[g].append(mb)
        else:
            bwd_ready[g].append(mb)
        if not busy[g]:
            try_start(g, now)

    def release(g: int, kind: str, mb: int, start: float, end: float) -> None:
        """Stage ``g``'s task ends at ``end``; record it, start the next."""
        busy[g] = False
        rows.append((g, kind, mb, start, end))
        if kind == "B":
            in_flight[g] -= 1
        try_start(g, end)

    at(0.0, try_start, 0, 0.0)
    try:
        makespan = loop.run()
    finally:
        # The handlers call each other, a reference cycle through their
        # closure cells; cut it so the run's state is freed on return
        # instead of waiting for the cyclic garbage collector.
        try_start = done = arrive = release = None  # noqa: F841
    if len(rows) != 2 * g_inter * n_microbatches:
        raise RuntimeError(
            f"pipeline deadlock: executed {len(rows)} of "
            f"{2 * g_inter * n_microbatches} tasks"
        )
    trace = PipelineTrace(
        g_inter=g_inter,
        n_microbatches=n_microbatches,
        makespan=makespan,
        peak_in_flight=peak,
        t_f_stages=t_f,
        t_b_stages=t_b,
        link_times=link,
        link_busy=link_busy,
    )
    trace._hold_rows(tasks=rows, link_windows=sends)
    if OBS.enabled:
        _emit_pipeline_spans(trace)
    return trace


def _emit_pipeline_spans(trace: PipelineTrace) -> None:
    """Emit the finished schedule as virtual-time spans.

    One track per stage (``pipeline#k/stage0``, ...) and per link
    (``pipeline#k/link0``) — the ``group`` prefix keeps repeated runs
    inside one trace (every data-parallel replica profile) on their own
    tracks. Emission order is deterministic: stages then links, each
    sorted by start time.
    """
    tracer = OBS.tracer
    grp = tracer.group("pipeline")
    for g in range(trace.g_inter):
        track = f"{grp}/stage{g}"
        for t in trace.gpu_tasks(g):
            tracer.record(
                f"{t.kind}{t.microbatch}",
                t.start,
                t.end,
                category="pipeline.forward" if t.kind == "F" else "pipeline.backward",
                track=track,
                mb=t.microbatch,
            )
    for i, windows in enumerate(trace.link_windows):
        track = f"{grp}/link{i}"
        for start, end, label in sorted(windows):
            tracer.record(
                label or "msg", start, end, category="link", track=track
            )
