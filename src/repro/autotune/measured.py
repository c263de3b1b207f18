"""``measured`` fidelity: execute the schedule, then price the ledger.

Every other fidelity in the registry prices the paper's cost model
against itself. This one closes the loop with the *executable* stack:

1. **Execute.** :func:`execute_pipeline` runs the candidate's microbatch
   schedule — GPipe order, activation checkpointing, SAMO compression —
   on small synthetic tensors through
   :class:`~repro.parallel.pipeline_exec.PipelineStageTrainer` over the
   in-process :mod:`repro.comm.backend` thread ranks, and
   :func:`execute_grad_sync` runs the data-parallel
   :class:`~repro.parallel.pipeline_exec.BucketedGradSync`. Per-phase
   wall clock (forward, backward, p2p, collective) is timed under the
   :mod:`repro.obs` span machinery and kept on the profile.
2. **Replay.** The trainer's per-rank event ledger (``fwd``/``bwd``
   compute, tagged sends/recvs) is compiled once into a
   :class:`ReplayProgram` and replayed deterministically by
   :func:`replay_events` with each op priced at the *model-scale* cost
   (``t_f``/``t_b`` from the device model, ``t_msg`` from the p2p
   model): what the execution contributes is the realized schedule
   structure — message counts, FIFO dependencies, warmup/drain idling,
   bucket sizes — not the host's wall clock.
3. **Project.** A scale mapping takes the small executed run onto the
   candidate's full GPU counts: phases linear in the microbatch count
   (compute, p2p) scale by ``m / m_exec``; the warmup/drain bubble
   scales by ``(g_inter - 1) / (g_exec - 1)`` (Eq. 7's structural
   factor); the data-parallel collective prices each *executed* bucket's
   fraction of the model-scale gradient payload. Tensor-parallel
   collectives are not executed and stay analytically priced.

Splitting wall clock (step 1) from pricing (steps 2-3) is what makes
``measured`` both a real execution *and* byte-deterministic per seed —
the drift report (:mod:`repro.autotune.drift`) depends on the latter,
while :func:`measure_comm_samples` +
:func:`repro.cluster.calibration.fit_calibration` consume the former.

Scenarios are rejected (an executed schedule has no degraded-machine
knob), mirroring the analytic estimator's contract.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

import numpy as np

from ..cluster.calibration import SUMMIT, CommSample, SummitCalibration
from ..cluster.collectives import allreduce_time
from ..comm.backend import run_parallel
from ..core.config import SAMOConfig
from ..models.spec import ModelSpec
from ..parallel.data_parallel import gradient_bytes_per_gpu
from ..parallel.perf_model import BatchBreakdown, ParallelConfig, microbatches_per_gpu
from ..parallel.pipeline_exec import (
    BucketedGradSync,
    PipelineStageTrainer,
    StageModule,
)
from ..parallel.scenarios import PipelineScenario
from .cache import Flight
from .config import SPARSE_MODES, CandidateConfig
from .estimator import (
    AnalyticEstimator,
    Evaluation,
    candidate_memory_per_gpu,
    register_estimator,
)

__all__ = [
    "MeasuredEstimator",
    "ProfileStore",
    "PipelineProfile",
    "CollectiveProfile",
    "ReplayResult",
    "execute_pipeline",
    "execute_grad_sync",
    "ReplayProgram",
    "compile_replay",
    "replay_events",
    "measure_comm_samples",
    "MAX_EXEC_STAGES",
    "MAX_EXEC_MICROBATCHES",
    "MAX_EXEC_REPLICAS",
]

#: hidden width of the executable proxy blocks (one Linear+GELU per stage)
PROXY_HID = 16
#: samples per proxy microbatch
PROXY_MB_SAMPLES = 2
#: stage-local magnitude-pruning level of the SAMO proxy state
PROXY_SPARSITY = 0.5
#: executable caps: a candidate's ``G_inter``/``m``/``G_data`` beyond
#: these run at the cap and project back up through the scale mapping
MAX_EXEC_STAGES = 6
MAX_EXEC_MICROBATCHES = 4
MAX_EXEC_REPLICAS = 4


def _derived_seeds(seed: int, *key: int) -> tuple[int, int]:
    """Two stable 32-bit seeds for (init, data) from ``seed`` + a shape key.

    Goes through :class:`numpy.random.SeedSequence` so distinct profile
    shapes get decorrelated streams while the whole tree stays pinned by
    one user-facing seed (the ``repro.rng`` discipline).
    """
    state = np.random.SeedSequence([int(seed), *map(int, key)]).generate_state(2)
    return int(state[0]), int(state[1])


# ---------------------------------------------------------------------------
# execution profiles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PipelineProfile:
    """What one executed pipeline run measured.

    ``events`` (per rank, program order) and the op counts are
    deterministic per seed; ``program`` is ``events`` compiled once by
    :func:`compile_replay`; ``wall_seconds`` is the host's per-phase
    wall clock (informational — never part of deterministic pricing).
    """

    g_exec: int
    m_exec: int
    events: tuple
    fwd_counts: tuple
    bwd_counts: tuple
    wall_seconds: tuple  # ((phase, seconds), ...) summed across ranks
    program: "ReplayProgram" = field(repr=False, compare=False)


@dataclass(frozen=True)
class CollectiveProfile:
    """What one executed bucketed grad-sync measured."""

    dp_exec: int
    n_buckets: int
    bucket_bytes: tuple
    bytes_communicated: int
    wall_seconds: float


@dataclass(frozen=True)
class ReplayResult:
    """Deterministic virtual timeline of an event ledger."""

    makespan: float
    busy_compute: tuple
    busy_message: tuple

    @property
    def max_busy(self) -> float:
        return max(
            c + m for c, m in zip(self.busy_compute, self.busy_message)
        )

    @property
    def max_message_seconds(self) -> float:
        return max(self.busy_message)


def execute_pipeline(
    g_inter: int,
    m: int,
    *,
    samo: bool = False,
    checkpoint: bool = False,
    seed: int = 0,
) -> PipelineProfile:
    """Run one GPipe-ordered training step on ``g_inter`` thread ranks.

    Each rank owns one ``Linear+GELU`` proxy block (identical seeded
    init everywhere, each rank keeping its slice — the test-suite
    convention), trains through the SAMO or dense mixed-precision state,
    and records its event ledger. Returns the per-rank ledgers plus op
    counts and per-phase wall clock.
    """
    if g_inter < 1:
        raise ValueError(f"g_inter must be >= 1, got {g_inter}")
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    from ..tensor import Tensor, functional as F

    init_seed, data_seed = _derived_seeds(
        seed, 1, g_inter, m, int(samo), int(checkpoint)
    )
    data_rng = np.random.default_rng(data_seed)
    n = m * PROXY_MB_SAMPLES
    x = data_rng.normal(size=(n, PROXY_HID)).astype(np.float32)
    y = data_rng.integers(0, PROXY_HID, size=n)
    mbs = [x[i * PROXY_MB_SAMPLES : (i + 1) * PROXY_MB_SAMPLES] for i in range(m)]
    tgts = [y[i * PROXY_MB_SAMPLES : (i + 1) * PROXY_MB_SAMPLES] for i in range(m)]

    def worker(comm):
        rng = np.random.default_rng(init_seed)
        blocks = [_proxy_block(rng) for _ in range(comm.size)]
        tr = PipelineStageTrainer(
            comm,
            [blocks[comm.rank]],
            head=(lambda b: Tensor(b)) if comm.rank == 0 else None,
            loss_head=(
                (lambda out, t: F.cross_entropy(out, t))
                if comm.rank == comm.size - 1
                else None
            ),
            samo_sparsity=PROXY_SPARSITY if samo else None,
            config=SAMOConfig(),
            checkpoint_segments=1 if checkpoint else 0,
            record_events=True,
        )
        tr.train_step(mbs, tgts, schedule="gpipe")
        return tuple(tr.events), dict(tr.phase_seconds)

    results = run_parallel(g_inter, worker)
    events = tuple(ev for ev, _ in results)
    wall: dict[str, float] = {}
    for _, phases in results:
        for phase, sec in phases.items():
            wall[phase] = wall.get(phase, 0.0) + sec
    return PipelineProfile(
        g_exec=g_inter,
        m_exec=m,
        events=events,
        fwd_counts=tuple(sum(e[0] == "fwd" for e in ev) for ev in events),
        bwd_counts=tuple(sum(e[0] == "bwd" for e in ev) for ev in events),
        wall_seconds=tuple(sorted(wall.items())),
        program=compile_replay(events),
    )


def execute_grad_sync(
    g_data: int,
    *,
    samo: bool = False,
    n_buckets: int = 4,
    seed: int = 0,
) -> CollectiveProfile:
    """Run one bucketed data-parallel all-reduce on ``g_data`` ranks.

    Every rank holds the same seeded proxy module, produces a gradient
    from rank-local data, and reduces through
    :class:`~repro.parallel.pipeline_exec.BucketedGradSync`. The bucket
    byte split the greedy bucketer *actually produced* is the
    measurement the collective pricing projects onto the model-scale
    payload.
    """
    if g_data < 2:
        raise ValueError(f"g_data must be >= 2, got {g_data}")
    from ..tensor import Tensor, functional as F

    init_seed, data_seed = _derived_seeds(seed, 2, g_data, int(samo), n_buckets)

    def worker(comm):
        rng = np.random.default_rng(init_seed)
        module = StageModule([_proxy_block(rng) for _ in range(3)])
        if samo:
            from ..core import SAMOTrainingState
            from ..pruning.magnitude import magnitude_prune

            mask = magnitude_prune(module, PROXY_SPARSITY)
            state = SAMOTrainingState(module, mask, SAMOConfig())
        else:
            from ..train.mixed_precision import DenseMixedPrecisionState

            state = DenseMixedPrecisionState(module, SAMOConfig())
        rank_rng = np.random.default_rng([data_seed, comm.rank])
        xb = rank_rng.normal(size=(4, PROXY_HID)).astype(np.float32)
        yb = rank_rng.integers(0, PROXY_HID, size=4)
        loss = F.cross_entropy(module(Tensor(xb)), yb)
        loss.backward()
        state.compress_gradients()
        sync = BucketedGradSync(comm, n_buckets=n_buckets)
        sync(state)
        return tuple(sync.bucket_bytes), sync.bytes_communicated, sync.seconds

    results = run_parallel(g_data, worker)
    bucket_bytes, total, _ = results[0]
    return CollectiveProfile(
        dp_exec=g_data,
        n_buckets=n_buckets,
        bucket_bytes=bucket_bytes,
        bytes_communicated=total,
        wall_seconds=sum(r[2] for r in results),
    )


def _proxy_block(rng):
    from ..tensor import GELU, Linear, Sequential

    return Sequential(Linear(PROXY_HID, PROXY_HID, rng=rng), GELU())


class ProfileStore:
    """Thread-safe, single-flight memo of execution profiles.

    A profile is a pure function of its executable identity — the
    shape plus the seed — so one store can serve every
    :class:`MeasuredEstimator` that shares it: a
    :class:`~repro.api.Session` owns one, and each shape then executes
    once per session however many requests, candidates or pool threads
    ask for it. The first caller of a key executes it; concurrent
    callers of the same key wait on its :class:`~repro.autotune.cache.Flight`.
    A failed execution fails its flight (waiters re-raise) and caches
    nothing, so the next caller executes again.

    The store also memoises each pipeline profile's replay per
    ``(t_f, t_b, t_msg)`` cost class (:meth:`replay`): candidates that
    differ only in what the replay does not read share one.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._profiles: dict = {}
        self._inflight: dict = {}
        self._replays: dict = {}

    def __len__(self) -> int:
        with self._lock:
            return len(self._profiles)

    def pipeline(
        self, g_exec: int, m_exec: int, samo: bool, checkpoint: bool, seed: int
    ) -> PipelineProfile:
        """The :func:`execute_pipeline` profile of one shape."""
        return self._single_flight(
            ("pipe", g_exec, m_exec, samo, checkpoint, seed),
            lambda: execute_pipeline(
                g_exec, m_exec, samo=samo, checkpoint=checkpoint, seed=seed
            ),
        )

    def collective(
        self, dp_exec: int, samo: bool, n_buckets: int, seed: int
    ) -> CollectiveProfile:
        """The :func:`execute_grad_sync` profile of one shape."""
        return self._single_flight(
            ("coll", dp_exec, samo, n_buckets, seed),
            lambda: execute_grad_sync(
                dp_exec, samo=samo, n_buckets=n_buckets, seed=seed
            ),
        )

    def replay(
        self, profile: PipelineProfile, *, t_f: float, t_b: float, t_msg: float
    ) -> ReplayResult:
        """:func:`replay_events` of ``profile``'s program, memoised.

        A miss runs the module-level :func:`replay_events` on the
        compiled program. Two threads missing the same class both run
        it and store equal results, so no flight is needed.
        """
        key = (profile.program, t_f, t_b, t_msg)
        result = self._replays.get(key)
        if result is None:
            result = replay_events(profile.program, t_f=t_f, t_b=t_b, t_msg=t_msg)
            with self._lock:
                result = self._replays.setdefault(key, result)
        return result

    def _single_flight(self, key: tuple, execute):
        with self._lock:
            profile = self._profiles.get(key)
            if profile is not None:
                return profile
            flight = self._inflight.get(key)
            owner = flight is None
            if owner:
                flight = self._inflight[key] = Flight()
        if not owner:
            return flight.result()
        try:
            profile = execute()
        except BaseException as err:
            with self._lock:
                del self._inflight[key]
            flight.fail(err)
            raise
        with self._lock:
            self._profiles[key] = profile
            del self._inflight[key]
        flight.set(profile)
        return profile


# ---------------------------------------------------------------------------
# deterministic replay
# ---------------------------------------------------------------------------

#: op codes of a compiled replay program
_FWD, _BWD, _SEND, _RECV = range(4)


@dataclass(frozen=True, eq=False)
class ReplayProgram:
    """An event ledger's replay, compiled to a straight-line op program.

    The replay's processing order — which rank runs next, which send
    each recv matches — depends on the ledger alone, never on the op
    costs, so :func:`compile_replay` fixes it once and :meth:`run` only
    does the arithmetic. ``ops`` holds one ``(op, rank, slot)`` per
    event in processing order; ``slot`` numbers a send's completion
    time and names, on a recv, the send it matched. Compared and hashed
    by identity, so a program can key a memo cheaply.
    """

    n_ranks: int
    n_sends: int
    ops: tuple

    def run(self, t_f: float, t_b: float, t_msg: float) -> ReplayResult:
        """The ledger's timeline at these op costs."""
        clock = [0.0] * self.n_ranks
        busy_compute = [0.0] * self.n_ranks
        busy_message = [0.0] * self.n_ranks
        sent = [0.0] * self.n_sends
        for op, r, slot in self.ops:
            if op == _FWD:
                clock[r] += t_f
                busy_compute[r] += t_f
            elif op == _BWD:
                clock[r] += t_b
                busy_compute[r] += t_b
            elif op == _SEND:
                clock[r] += t_msg
                busy_message[r] += t_msg
                sent[slot] = clock[r]
            else:
                # max(clock[r], arrival), spelled out: same value, no call
                start, arrival = clock[r], sent[slot]
                clock[r] = (arrival if arrival > start else start) + t_msg
                busy_message[r] += t_msg
        return ReplayResult(
            makespan=max(clock) if clock else 0.0,
            busy_compute=tuple(busy_compute),
            busy_message=tuple(busy_message),
        )


def compile_replay(events) -> ReplayProgram:
    """Fix the replay order of per-rank event ledgers.

    ``events[r]`` is rank ``r``'s program-order ledger from
    :class:`~repro.parallel.pipeline_exec.PipelineStageTrainer`
    (``record_events=True``). Ranks are visited round-robin, each
    running until it blocks on a recv whose matching send — per
    ``(src, dst, tag)`` FIFO, the backend's matching rule — has not
    been replayed yet. Raises :class:`ValueError` on an unknown event
    kind and :class:`RuntimeError` when every remaining rank is blocked
    (a truncated or corrupted ledger).
    """
    from collections import deque

    n = len(events)
    ptr = [0] * n
    unmatched: dict[tuple, deque] = {}  # (src, dst, tag) -> send slots
    ops = []
    n_sends = 0
    remaining = sum(len(ev) for ev in events)
    while remaining:
        progressed = False
        for r in range(n):
            ledger = events[r]
            while ptr[r] < len(ledger):
                ev = ledger[ptr[r]]
                kind = ev[0]
                if kind == "fwd":
                    ops.append((_FWD, r, 0))
                elif kind == "bwd":
                    ops.append((_BWD, r, 0))
                elif kind == "send":
                    unmatched.setdefault((r, ev[1], ev[2]), deque()).append(n_sends)
                    ops.append((_SEND, r, n_sends))
                    n_sends += 1
                elif kind == "recv":
                    queue = unmatched.get((ev[1], r, ev[2]))
                    if not queue:
                        break  # blocked on a send not yet replayed
                    ops.append((_RECV, r, queue.popleft()))
                else:
                    raise ValueError(f"unknown event kind {kind!r}")
                ptr[r] += 1
                remaining -= 1
                progressed = True
        if remaining and not progressed:
            raise RuntimeError(
                "event replay deadlocked: a recv has no matching send "
                "(truncated or corrupted ledger)"
            )
    return ReplayProgram(n_ranks=n, n_sends=n_sends, ops=tuple(ops))


def replay_events(
    events, *, t_f: float, t_b: float, t_msg: float
) -> ReplayResult:
    """Replay per-rank event ledgers on a virtual clock.

    ``events`` is a ledger (see :func:`compile_replay`) or its compiled
    :class:`ReplayProgram`. Compute ops cost ``t_f``/``t_b``; each send
    and each recv costs ``t_msg`` of link busy time on its endpoint
    (Eq. 9's four-messages-per-microbatch accounting for an interior
    GPU); a recv additionally waits for the matching send's completion,
    so warmup/drain and message-wait idling surface in the makespan.
    Pure function of its arguments: replays are byte-deterministic
    however the real threads interleaved.
    """
    if not isinstance(events, ReplayProgram):
        events = compile_replay(events)
    return events.run(t_f, t_b, t_msg)


# ---------------------------------------------------------------------------
# wall-clock communication sampling
# ---------------------------------------------------------------------------

def measure_comm_samples(
    sizes=(256 * 1024, 1024 * 1024, 4 * 1024 * 1024),
    *,
    repeats: int = 3,
    group_size: int = 2,
) -> list[CommSample]:
    """Wall-clock :class:`~repro.cluster.calibration.CommSample` runs.

    Times the in-process backend itself: p2p samples are half the
    best-of-``repeats`` ping-pong round trip between two thread ranks,
    collective samples the best-of-``repeats`` ring all-reduce across
    ``group_size`` ranks. Feeding these to
    :func:`repro.cluster.calibration.fit_calibration` yields the *host
    transport's* alpha/beta (memcpy-class, far from Summit's) — the
    measurement path; the deterministic drift report uses the seeded
    synthetic sampler instead.
    """
    samples: list[CommSample] = []
    for nbytes in sizes:
        payload = np.zeros(max(nbytes // 4, 1), dtype=np.float32)

        def pingpong(comm, payload=payload):
            best = float("inf")
            for _ in range(repeats + 1):  # first lap warms the mailboxes
                t0 = time.perf_counter()
                if comm.rank == 0:
                    comm.send(1, payload, tag=1)
                    comm.recv(1, tag=2)
                else:
                    comm.recv(0, tag=1)
                    comm.send(0, payload, tag=2)
                best = min(best, time.perf_counter() - t0)
            return best

        rtt = max(run_parallel(2, pingpong))
        samples.append(CommSample("p2p", payload.nbytes, max(rtt / 2, 1e-9)))

        def ring(comm, payload=payload):
            best = float("inf")
            for _ in range(repeats + 1):
                t0 = time.perf_counter()
                comm.allreduce(payload)
                best = min(best, time.perf_counter() - t0)
            return best

        coll = max(run_parallel(group_size, ring))
        samples.append(
            CommSample(
                "collective", payload.nbytes, max(coll, 1e-9), group_size=group_size
            )
        )
    return samples


# ---------------------------------------------------------------------------
# the estimator
# ---------------------------------------------------------------------------

class MeasuredEstimator(AnalyticEstimator):
    """Price candidates from executed schedules (see the module docstring).

    Inherits the analytic per-op primitives (``_stage_times``,
    ``_boundary_message_time``, memory model, tensor-parallel
    collectives) — the measured phases replace the *structural* closed
    forms (Eqs. 7/9 and the monolithic all-reduce) with the executed
    schedule's replay. ``seed`` pins the synthetic tensors and the SAMO
    masks; a non-default seed lands in the fidelity label so cache keys
    cannot alias runs of different seeds. Execution profiles come from
    ``profiles`` (a :class:`ProfileStore`, private to the estimator
    unless one is passed in — a :class:`~repro.api.Session` passes its
    own), so planning a whole search space triggers only a handful of
    real runs.
    """

    fidelity = "measured"
    supports_scenarios = False

    def __init__(
        self,
        spec: ModelSpec,
        cal: SummitCalibration = SUMMIT,
        scenario: PipelineScenario | str | None = None,
        seed: int = 0,
        profiles: ProfileStore | None = None,
    ):
        super().__init__(spec, cal, scenario=scenario)
        self.seed = int(seed)
        if self.seed != 0:
            self.fidelity = f"measured[s{self.seed}]"
        self.profiles = profiles if profiles is not None else ProfileStore()

    def with_scenario(self, scenario) -> "MeasuredEstimator":
        from ..parallel.scenarios import get_scenario

        if get_scenario(scenario) == self.scenario:
            return self
        # non-None scenarios are rejected by the base constructor
        return type(self)(
            self.spec, self.cal, scenario=scenario, seed=self.seed,
            profiles=self.profiles,
        )

    # -- pricing ------------------------------------------------------------
    def evaluate(self, config: CandidateConfig) -> Evaluation:
        if self.spec.family == "cnn":
            return self._evaluate_cnn(config)
        spec, cal = self.spec, self.cal
        m = microbatches_per_gpu(spec.batch_size, config.g_data, config.mbs)
        t_f, t_b = self._stage_times(config)
        samo_exec = config.mode.value == "samo"
        g = config.g_inter

        if g > 1:
            g_exec = min(g, MAX_EXEC_STAGES)
            m_exec = min(m, MAX_EXEC_MICROBATCHES)
            t_msg = self._boundary_message_time(config)
            if config.framework == "deepspeed-3d":
                t_msg *= cal.deepspeed_p2p_penalty
            prof = self.profiles.pipeline(
                g_exec, m_exec, samo_exec, config.checkpoint_activations, self.seed
            )
            replay = self.profiles.replay(prof, t_f=t_f, t_b=t_b, t_msg=t_msg)
            scale_m = m / m_exec
            scale_g = (g - 1) / (g_exec - 1)
            p2p = replay.max_message_seconds * scale_m
            bubble = max(replay.makespan - replay.max_busy, 0.0) * scale_g
            if config.framework == "deepspeed-3d":
                bubble *= cal.deepspeed_bubble_penalty
        else:
            g_exec, m_exec = 1, 1
            prof = self.profiles.pipeline(
                1, 1, samo_exec, config.checkpoint_activations, self.seed
            )
            scale_m = float(m)
            p2p = bubble = 0.0
        compute = (
            max(prof.fwd_counts) * t_f + max(prof.bwd_counts) * t_b
        ) * scale_m
        overhead = self._compress_overhead(config, m)

        coll = self._measured_collective(config)
        coll += self._tensor_parallel_collective(config, m)

        other = cal.other_fraction * compute
        mem = candidate_memory_per_gpu(spec, config, cal)
        pcfg = ParallelConfig(
            n_gpus=config.g_inter * config.g_data,
            g_inter=config.g_inter,
            g_data=config.g_data,
            mbs=config.mbs,
            microbatches=m,
        )
        breakdown = BatchBreakdown(
            framework=config.framework,
            model=spec.name,
            config=pcfg,
            compute=compute + overhead,
            p2p=p2p,
            bubble=bubble,
            collective=coll,
            other=other,
            memory_per_gpu=mem,
            notes={
                "t_f": t_f,
                "t_b": t_b,
                "overhead": overhead,
                "mode": config.mode,
                "g_tensor": config.g_tensor,
                "fidelity": self.fidelity,
                "g_exec": g_exec,
                "m_exec": m_exec,
                "seed": self.seed,
            },
        )
        return Evaluation(
            config=config,
            breakdown=breakdown,
            memory_bytes=mem,
            feasible=mem <= cal.gpu_memory_bytes,
            batch_size=spec.batch_size,
            fidelity=self.fidelity,
        )

    def _measured_collective(self, config: CandidateConfig) -> float:
        """Price the executed bucket split at the model-scale payload.

        Each bucket the executed :class:`BucketedGradSync` produced
        rings its byte *fraction* of the candidate's gradient payload
        across the candidate's full ``G_data`` — so bucket-count alpha
        overhead is measured, payload and group size stay model-scale.
        """
        if config.g_data <= 1:
            return 0.0
        sparse = config.mode in SPARSE_MODES
        payload = gradient_bytes_per_gpu(
            self.spec, config.model_parallel_degree, sparse, config.sparsity
        )
        prof = self.profiles.collective(
            min(config.g_data, MAX_EXEC_REPLICAS),
            config.mode.value == "samo",
            self.n_buckets,
            self.seed,
        )
        total = sum(prof.bucket_bytes)
        return sum(
            allreduce_time(
                max(round(b / total * payload), 1), config.g_data, self.cal
            )
            for b in prof.bucket_bytes
        )

    def _evaluate_cnn(self, config: CandidateConfig) -> Evaluation:
        """CNNs run pure data parallel: execute one local step plus the
        bucketed sync; compute units come from the conv efficiency curve
        (the analytic path's per-op primitive)."""
        spec, cal = self.spec, self.cal
        n_gpus = config.n_gpus
        if spec.batch_size % n_gpus:
            raise ValueError(f"batch {spec.batch_size} not divisible by {n_gpus} GPUs")
        samples_per_gpu = spec.batch_size // n_gpus
        hint = spec.efficiency_hint
        eff_max = hint.get("eff_max", cal.conv_efficiency)
        half = hint.get("half_batch", cal.conv_half_batch)
        eff = eff_max * samples_per_gpu / (samples_per_gpu + half)
        unit_f = spec.fwd_flops_per_sample() * samples_per_gpu / (
            self.device.peak_flops * eff
        )
        samo_exec = config.mode.value == "samo"
        prof = self.profiles.pipeline(1, 1, samo_exec, False, self.seed)
        compute = max(prof.fwd_counts) * unit_f + max(prof.bwd_counts) * 2.0 * unit_f
        backward_compute = max(prof.bwd_counts) * 2.0 * unit_f
        if n_gpus > 1:
            raw = self._measured_collective(config)
            hidden = min(raw * cal.dp_overlap_fraction, backward_compute)
            coll = max(raw - hidden, 0.0)
        else:
            coll = 0.0
        other = cal.other_fraction * compute
        mem = candidate_memory_per_gpu(spec, config, cal)
        pcfg = ParallelConfig(
            n_gpus=n_gpus, g_inter=1, g_data=n_gpus, mbs=config.mbs, microbatches=1
        )
        breakdown = BatchBreakdown(
            framework=config.framework,
            model=spec.name,
            config=pcfg,
            compute=compute,
            p2p=0.0,
            bubble=0.0,
            collective=coll,
            other=other,
            memory_per_gpu=mem,
            notes={"mode": config.mode, "fidelity": self.fidelity, "seed": self.seed},
        )
        return Evaluation(
            config=config,
            breakdown=breakdown,
            memory_bytes=mem,
            feasible=mem <= cal.gpu_memory_bytes,
            batch_size=spec.batch_size,
            fidelity=self.fidelity,
        )


@register_estimator("measured")
def _make_measured(
    spec, cal=SUMMIT, *, scenario=None, partition_mode="flops",
    overlap=False, placement="block", seed=0, profiles=None,
):
    if partition_mode != "flops":
        raise ValueError(
            "the measured fidelity executes the uniform-stage proxy; "
            "time-balanced partitioning needs fidelity='sim'"
        )
    if overlap or placement != "block":
        raise ValueError(
            "overlap and placement optimization need the event-driven "
            "engine; use fidelity='sim'"
        )
    return MeasuredEstimator(
        spec, cal, scenario=scenario, seed=seed, profiles=profiles
    )
