"""Seeded JSON-RPC request streams for the planner benchmark.

A stream is a sequence of *episodes*; an episode is a list of JSON-RPC
request dicts. Every cold episode is served by a fresh
``PlanningServer`` on an empty store, and within one episode no two
requests share an evaluation-cache key: each request that reaches the
store draws its own (model, n_gpus) *slot* without replacement. Dense
candidates carry no sparsity in their key, so two requests on one slot
would share keys even with different sparsities. Requests come in
*blocks*, one request of every kind of the workload per block, in a
seeded order, so the request mix is the same for every seed.

Episode ``i`` of workload ``w`` under seed ``s`` depends only on
``(w, s, i)``, so the same seed gives a byte-identical stream. This
module imports nothing from the program under test.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass

#: Table I GPT models
GPT_MODELS = ("gpt3-xl", "gpt3-2.7b", "gpt3-6.7b", "gpt3-13b")


def _slots(text: str) -> tuple:
    return tuple((m, int(n)) for m, n in (s.split("@") for s in text.split()))


#: The (model, GPU count) slots of the plan workloads: every Table I GPT
#: model on ``q * 2**a`` GPUs in [16, 512] for odd parts q <= 7 (a
#: pipeline depth must divide the count, and an odd part above a
#: model's layer count leaves no candidate). Ordered by the number of
#: candidates a default search enumerates at sparsity 0.85, largest
#: first, so neighbouring slots cost about the same to plan.
PLAN_SLOTS = _slots("""
gpt3-2.7b@128 gpt3-2.7b@256 gpt3-2.7b@512 gpt3-xl@128 gpt3-xl@64 gpt3-xl@256
gpt3-2.7b@64 gpt3-xl@32 gpt3-xl@512 gpt3-xl@192 gpt3-xl@384 gpt3-xl@96
gpt3-xl@48 gpt3-2.7b@32 gpt3-xl@16 gpt3-2.7b@192 gpt3-2.7b@384 gpt3-2.7b@96
gpt3-2.7b@48 gpt3-xl@24 gpt3-6.7b@128 gpt3-6.7b@256 gpt3-6.7b@512 gpt3-xl@160
gpt3-xl@320 gpt3-xl@80 gpt3-2.7b@112 gpt3-2.7b@224 gpt3-2.7b@448 gpt3-2.7b@24
gpt3-6.7b@64 gpt3-2.7b@160 gpt3-2.7b@320 gpt3-2.7b@80 gpt3-xl@40 gpt3-2.7b@56
gpt3-2.7b@16 gpt3-2.7b@40 gpt3-6.7b@192 gpt3-6.7b@384 gpt3-6.7b@96 gpt3-6.7b@112
gpt3-6.7b@224 gpt3-6.7b@448 gpt3-6.7b@32 gpt3-xl@20 gpt3-6.7b@48 gpt3-2.7b@28
gpt3-6.7b@56 gpt3-13b@160 gpt3-13b@320 gpt3-2.7b@20 gpt3-6.7b@160 gpt3-6.7b@320
gpt3-6.7b@80 gpt3-13b@128 gpt3-13b@256 gpt3-13b@512 gpt3-xl@112 gpt3-xl@224
gpt3-xl@448 gpt3-xl@56 gpt3-13b@80 gpt3-6.7b@40 gpt3-6.7b@24 gpt3-13b@64
gpt3-xl@28 gpt3-6.7b@28 gpt3-13b@112 gpt3-13b@224 gpt3-13b@448 gpt3-13b@40
gpt3-13b@192 gpt3-13b@384 gpt3-13b@96 gpt3-6.7b@20 gpt3-13b@56 gpt3-13b@32
gpt3-6.7b@16 gpt3-13b@48 gpt3-13b@28 gpt3-13b@24 gpt3-13b@20 gpt3-13b@16
""")

#: The slots of sim-cold: the two smaller GPT models on ``q * 2**a``
#: GPUs in [16, 128] for q <= 5, ordered by the time of a cold narrowed
#: sim plan plus a mixed-degraded robust plan, slowest first.
SIM_SLOTS = _slots("""
gpt3-2.7b@64 gpt3-2.7b@32 gpt3-xl@20 gpt3-2.7b@128 gpt3-xl@32
gpt3-2.7b@24 gpt3-xl@40 gpt3-2.7b@40 gpt3-xl@16 gpt3-xl@24
gpt3-xl@48 gpt3-2.7b@20 gpt3-2.7b@80 gpt3-2.7b@16 gpt3-xl@80
gpt3-xl@64 gpt3-2.7b@48 gpt3-xl@96 gpt3-2.7b@96 gpt3-xl@128
""")

#: GPU counts of requests that never reach the store (breakdown, place)
FREE_GPUS = (32, 64, 128, 256, 512)


# ---------------------------------------------------------------------------
# request kinds: name -> (uses the store, build(job, rng) -> (method, params))
# ---------------------------------------------------------------------------

NARROW_SIM = {
    "frameworks": ["axonn+samo"],
    "microbatch_sizes": [8],
    "explore_no_checkpoint": False,
}


def _with(job: dict, **extra) -> dict:
    return {**job, **extra}


def _mc(process: str, search: dict | None = None):
    def build(job, rng):
        params = {
            "job": job,
            "process": process,
            "samples": 32,
            "seed": rng.randrange(2**31),
        }
        return "mc_robust_plan", {**params, **(search or {})}

    return build


KINDS = {
    # plan-cold / plan-warm: closed-form pricing, no event engine
    "plan": (True, lambda job, rng: ("plan", {"job": job})),
    "plan-batch": (
        True,
        lambda job, rng: ("plan", {"job": _with(job, fidelity="analytic-batch")}),
    ),
    "robust-collective": (
        True,
        lambda job, rng: (
            "robust_plan",
            {
                "job": _with(job, fidelity="analytic-batch"),
                "scenarios": "collective-degraded",
            },
        ),
    ),
    "robust-hierarchical": (
        True,
        lambda job, rng: (
            "robust_plan",
            {
                "job": _with(job, fidelity="analytic-batch"),
                "scenarios": "hierarchical-mixed",
            },
        ),
    ),
    "mc-flaky": (True, _mc("flaky-links")),
    "mc-calm": (True, _mc("calm")),
    "breakdown": (
        False,
        lambda job, rng: (
            "breakdown",
            {"job": _with(job, framework=rng.choice(["axonn", "axonn+samo"]))},
        ),
    ),
    # sim-cold: the event engine, on narrowed search axes
    "plan-sim": (
        True,
        lambda job, rng: ("plan", {"job": _with(job, fidelity="sim"), **NARROW_SIM}),
    ),
    "robust-pipeline": (
        True,
        lambda job, rng: (
            "robust_plan",
            {"job": job, "scenarios": "pipeline-degraded", **NARROW_SIM},
        ),
    ),
    "robust-mixed": (
        True,
        lambda job, rng: (
            "robust_plan",
            {"job": job, "scenarios": "mixed-degraded", **NARROW_SIM},
        ),
    ),
    "mc-spot": (True, _mc("spot-preemption", NARROW_SIM)),
    "mc-aging": (True, _mc("aging-stragglers", NARROW_SIM)),
    "place": (
        False,
        lambda job, rng: (
            "place",
            {
                "job": _with(job, framework="axonn+samo", mbs=4),
                "scenario": "straggler",
                "swap_sweeps": 1,
            },
        ),
    ),
    "breakdown-overlap": (
        False,
        lambda job, rng: (
            "breakdown",
            {"job": _with(job, framework="axonn+samo", mbs=8, overlap=True)},
        ),
    ),
    # measured-cold: the executable stack
    "plan-measured": (
        True,
        lambda job, rng: ("plan", {"job": _with(job, fidelity="measured")}),
    ),
    "breakdown-measured": (
        False,
        lambda job, rng: (
            "breakdown",
            {
                "job": _with(
                    job,
                    framework=rng.choice(["axonn", "axonn+samo"]),
                    fidelity="measured",
                )
            },
        ),
    ),
}


@dataclass(frozen=True)
class Workload:
    name: str
    #: request kinds of one block (a kind may repeat to weight the mix)
    block: tuple
    #: slots of the store-using requests, neighbours of similar cost
    slots: tuple
    #: (models, GPU counts) of requests that never reach the store
    free_models: tuple
    free_gpus: tuple
    #: replay episode 0 against a store a prep step filled from it
    warm: bool = False

    @property
    def per_block(self) -> int:
        """Store-using requests per block: the size of one stratum."""
        return sum(KINDS[k][0] for k in self.block)

    @property
    def blocks_per_episode(self) -> int:
        return len(self.slots) // self.per_block


PLAN_MIX = (
    "plan",
    "plan-batch",
    "robust-collective",
    "robust-hierarchical",
    "mc-flaky",
    "mc-calm",
    "breakdown",
)

WORKLOADS = {
    w.name: w
    for w in (
        # every cell misses: enumerate, key, price and materialise carry
        # the time and the store takes writes; nothing runs the event engine
        Workload("plan-cold", PLAN_MIX, PLAN_SLOTS, GPT_MODELS, FREE_GPUS),
        # plan-cold's first episode on a store loaded from a snapshot:
        # pricing does no work, so key, lookup, rank and serialise carry the
        # time, and the store load lands in set-up
        Workload("plan-warm", PLAN_MIX, PLAN_SLOTS, GPT_MODELS, FREE_GPUS, warm=True),
        # the event engine (pipeline simulation, overlap, placement search)
        # takes nearly all the time; sized to the two smaller models and to
        # one microbatch size so that a run holds ~150 requests
        Workload(
            "sim-cold",
            (
                "plan-sim",
                "robust-pipeline",
                "robust-mixed",
                "mc-spot",
                "mc-aging",
                "place",
                "breakdown-overlap",
            ),
            SIM_SLOTS,
            GPT_MODELS[:2],
            FREE_GPUS[:2],
        ),
        # measured plans and breakdowns re-execute their profiles: the only
        # stream that runs the executable SAMO stack and the communicator;
        # three plans per breakdown keep the median among the plans
        Workload(
            "measured-cold",
            ("plan-measured", "plan-measured", "plan-measured", "breakdown-measured"),
            PLAN_SLOTS,
            GPT_MODELS,
            FREE_GPUS,
        ),
    )
}


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------

def _spread(rng: random.Random, n: int, lo: float, hi: float) -> list:
    """``n`` seeded draws from [lo, hi), one in each of ``n`` equal bins."""
    values = [lo + (hi - lo) * (i + rng.random()) / n for i in range(n)]
    rng.shuffle(values)
    return values


def episode(workload: str, seed: int, index: int) -> list:
    """Requests of episode ``index``; ids are global across the stream.

    The seed only deals, so that every episode holds the same work: the
    cost-ordered slots are cut into strata of neighbours, one stratum per
    block, and every kind of request gets one slot of every stratum; the
    blocks come in pairs of complementary cost; each
    kind that never reaches the store walks its own seeded order of the
    free grid; and each kind's sparsities fall one in each of equal bins
    of [0.75, 0.95). The seed orders the blocks and deals the slots, grid
    points and sparsities.
    """
    w = WORKLOADS[workload]
    if w.warm:
        index = 0  # a warm stream replays its first episode
    rng = random.Random(f"{workload}/{seed}/{index}")
    n = w.blocks_per_episode
    by_cost = [list(w.slots[i * w.per_block : (i + 1) * w.per_block]) for i in range(n)]
    # deal strata in pairs of complementary cost, the k-th dearest with the
    # k-th cheapest, so that a run ending mid-episode did average work
    pairs = [[by_cost[k], by_cost[-1 - k]] for k in range(n // 2)]
    if n % 2:
        pairs.append([by_cost[n // 2]])
    rng.shuffle(pairs)
    strata = []
    for pair in pairs:
        rng.shuffle(pair)
        strata.extend(pair)
    kinds = list(dict.fromkeys(w.block))
    free = {}
    for kind in kinds:
        grid = [(m, n) for m in w.free_models for n in w.free_gpus]
        rng.shuffle(grid)
        free[kind] = itertools.cycle(grid)
    sparsities = {
        kind: _spread(rng, w.block.count(kind) * w.blocks_per_episode, 0.75, 0.95)
        for kind in kinds
    }
    size = w.blocks_per_episode * len(w.block)
    requests = []
    for stratum in strata:
        rng.shuffle(stratum)
        kinds = list(w.block)
        rng.shuffle(kinds)
        for kind in kinds:
            uses_store, build = KINDS[kind]
            model, n_gpus = stratum.pop() if uses_store else next(free[kind])
            job = {
                "model": model,
                "n_gpus": n_gpus,
                "sparsity": sparsities[kind].pop(),
            }
            method, params = build(job, rng)
            requests.append(
                {
                    "jsonrpc": "2.0",
                    "id": index * size + len(requests),
                    "method": method,
                    "params": params,
                }
            )
    return requests


def requests(workload: str, seed: int, n: int) -> list:
    """The first ``n`` requests of the stream (episodes concatenated)."""
    out, index = [], 0
    while len(out) < n:
        out.extend(episode(workload, seed, index))
        index += 1
    return out[:n]


def stream_bytes(workload: str, seed: int, n: int) -> bytes:
    """The encoded first ``n`` requests, one JSON line each."""
    return b"".join(
        json.dumps(r).encode() + b"\n" for r in requests(workload, seed, n)
    )
