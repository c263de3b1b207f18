"""A compiled ledger replay equals the interpreted one, float for float.

:func:`~repro.autotune.measured.compile_replay` fixes a ledger's replay
order once; :meth:`~repro.autotune.measured.ReplayProgram.run` then does
only the arithmetic. ``_interpreted_replay`` below is the loop that did
both on every call, kept as the oracle: over every proxy shape the
``measured`` fidelity can execute, and at seeded op costs that include
zeros and ties, both must give equal replay results.
"""

from __future__ import annotations

import sys
import threading
from collections import deque

import numpy as np
import pytest

from repro.autotune import measured
from repro.autotune.measured import (
    MAX_EXEC_MICROBATCHES,
    MAX_EXEC_STAGES,
    ProfileStore,
    ReplayProgram,
    ReplayResult,
    compile_replay,
    replay_events,
)


def _interpreted_replay(events, *, t_f, t_b, t_msg) -> ReplayResult:
    """The replay as one interpreted loop (order and arithmetic together)."""
    n = len(events)
    clock = [0.0] * n
    ptr = [0] * n
    busy_compute = [0.0] * n
    busy_message = [0.0] * n
    arrivals: dict[tuple, deque] = {}
    remaining = sum(len(ev) for ev in events)
    while remaining:
        progressed = False
        for r in range(n):
            while ptr[r] < len(events[r]):
                ev = events[r][ptr[r]]
                kind = ev[0]
                if kind == "fwd":
                    clock[r] += t_f
                    busy_compute[r] += t_f
                elif kind == "bwd":
                    clock[r] += t_b
                    busy_compute[r] += t_b
                elif kind == "send":
                    clock[r] += t_msg
                    busy_message[r] += t_msg
                    arrivals.setdefault((r, ev[1], ev[2]), deque()).append(clock[r])
                elif kind == "recv":
                    queue = arrivals.get((ev[1], r, ev[2]))
                    if not queue:
                        break
                    clock[r] = max(clock[r], queue.popleft()) + t_msg
                    busy_message[r] += t_msg
                else:
                    raise ValueError(f"unknown event kind {kind!r}")
                ptr[r] += 1
                remaining -= 1
                progressed = True
        if remaining and not progressed:
            raise RuntimeError("event replay deadlocked")
    return ReplayResult(
        makespan=max(clock) if clock else 0.0,
        busy_compute=tuple(busy_compute),
        busy_message=tuple(busy_message),
    )


SHAPES = [
    (g, m, samo, checkpoint)
    for g in range(1, MAX_EXEC_STAGES + 1)
    for m in range(1, MAX_EXEC_MICROBATCHES + 1)
    for samo in (False, True)
    for checkpoint in (False, True)
]


def _costs(seed: int) -> list[tuple[float, float, float]]:
    """Op-cost triples: zeros, ties, and seeded draws across scales."""
    rng = np.random.default_rng(seed)
    a, b, c = (float(x) for x in rng.uniform(1e-4, 1e-1, size=3))
    triples = [
        (0.0, 0.0, 0.0),
        (a, a, a),
        (a, 2 * a, 0.0),
        (0.0, 0.0, c),
        (a, b, c),
        (a, b, b),
    ]
    for scale in rng.uniform(-6, 0, size=4):
        f, bw, msg = (float(x) for x in 10.0 ** (scale + rng.normal(size=3)))
        triples.append((f, bw, msg))
    return triples


@pytest.fixture(scope="module")
def store() -> ProfileStore:
    return ProfileStore()


@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "g%d-m%d-samo%d-ckpt%d" % s)
def test_compiled_replay_is_the_interpreted_replay(store, shape):
    g, m, samo, checkpoint = shape
    profile = store.pipeline(g, m, samo, checkpoint, 0)
    for t_f, t_b, t_msg in _costs(SHAPES.index(shape)):
        oracle = _interpreted_replay(profile.events, t_f=t_f, t_b=t_b, t_msg=t_msg)
        assert profile.program.run(t_f, t_b, t_msg) == oracle, (t_f, t_b, t_msg)
        assert replay_events(profile.events, t_f=t_f, t_b=t_b, t_msg=t_msg) == oracle
        assert store.replay(profile, t_f=t_f, t_b=t_b, t_msg=t_msg) == oracle


def test_program_shape():
    profile = measured.execute_pipeline(3, 2)
    program = profile.program
    assert isinstance(program, ReplayProgram)
    assert program.n_ranks == 3
    assert len(program.ops) == sum(len(ev) for ev in profile.events)
    sends = sum(ev[0] == "send" for ledger in profile.events for ev in ledger)
    assert program.n_sends == sends
    # every recv names a send that was replayed before it
    done = set()
    for op, _rank, slot in program.ops:
        if op == measured._SEND:
            done.add(slot)
        elif op == measured._RECV:
            assert slot in done
            done.discard(slot)
    assert not done


def test_memo_runs_each_cost_class_once(monkeypatch):
    calls = []
    real = measured.replay_events

    def counted(events, **costs):
        calls.append(costs)
        return real(events, **costs)

    monkeypatch.setattr(measured, "replay_events", counted)
    store = ProfileStore()
    profile = store.pipeline(3, 2, False, False, 0)
    first = store.replay(profile, t_f=1.0, t_b=2.0, t_msg=0.5)
    assert store.replay(profile, t_f=1.0, t_b=2.0, t_msg=0.5) is first
    store.replay(profile, t_f=1.0, t_b=2.0, t_msg=0.25)
    assert len(calls) == 2
    other = ProfileStore()
    assert other.replay(
        other.pipeline(3, 2, False, False, 0), t_f=1.0, t_b=2.0, t_msg=0.5
    ) == first
    assert len(calls) == 3  # a fresh store starts cold


def test_concurrent_misses_agree_on_one_result():
    """Eight threads miss the same cost classes on one store at once.

    Every caller of a class must get the one result the memo kept, so
    a thread that lost the race cannot hand out a second copy.
    """
    store = ProfileStore()
    profile = store.pipeline(4, 4, True, False, 0)
    classes = [(1.0, 2.0, float(k)) for k in range(64)]
    barrier = threading.Barrier(8)
    seen: list = []

    def ask():
        barrier.wait(timeout=10)
        seen.append(
            [store.replay(profile, t_f=f, t_b=b, t_msg=msg) for f, b, msg in classes]
        )

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=ask) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(seen) == 8
    for results in zip(*seen):
        assert all(r is results[0] for r in results)
    for (f, b, msg), result in zip(classes, seen[0]):
        assert result == profile.program.run(f, b, msg)
        assert store.replay(profile, t_f=f, t_b=b, t_msg=msg) is result


class TestErrors:
    def test_truncated_ledger_deadlocks(self):
        events = measured.execute_pipeline(2, 2).events
        # rank 0 stops after its first forward: rank 1 waits for a send forever
        truncated = (events[0][:1], events[1])
        with pytest.raises(RuntimeError, match="deadlocked"):
            _interpreted_replay(truncated, t_f=1.0, t_b=1.0, t_msg=1.0)
        with pytest.raises(RuntimeError, match="deadlocked"):
            compile_replay(truncated)
        with pytest.raises(RuntimeError, match="deadlocked"):
            replay_events(truncated, t_f=1.0, t_b=1.0, t_msg=1.0)

    def test_unmatched_recv_deadlocks(self):
        with pytest.raises(RuntimeError, match="no matching send"):
            compile_replay(((("recv", 1, 0, 8),), (("send", 0, 1, 8),)))

    def test_unknown_event_kind(self):
        events = ((("fwd",), ("nap",)),)
        with pytest.raises(ValueError, match="unknown event kind 'nap'"):
            _interpreted_replay(events, t_f=1.0, t_b=1.0, t_msg=1.0)
        with pytest.raises(ValueError, match="unknown event kind 'nap'"):
            replay_events(events, t_f=1.0, t_b=1.0, t_msg=1.0)

    def test_empty_ledger(self):
        assert replay_events((), t_f=1.0, t_b=1.0, t_msg=1.0) == ReplayResult(
            makespan=0.0, busy_compute=(), busy_message=()
        )
