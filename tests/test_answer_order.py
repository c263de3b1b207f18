"""An answer depends only on its inputs, not on which cells were warm.

``plan``, ``robust_plan`` and ``mc_robust_plan`` must serialize
byte-identically (``stats`` aside, which counts the hits) whether the
evaluation cache was cold, warm for a random subset of the cells, or
fully warm; and whether the session's measured profiles were already
executed or their replays memoised (a concurrent herd over one store is in ``tests/test_serve.py``).
Before candidates were listed in enumeration order, warm cells moved to
the front of ``evaluations``, and every stable sort over tied totals
then picked by cache history.
"""

from __future__ import annotations

import json
import random

import pytest
from hypothesis import Phase, given, settings, strategies as st

from repro.api import Job, Machine, Session
from repro.autotune import EvaluationCache, measured

SPACE = dict(frameworks=("axonn", "axonn+samo"), microbatch_sizes=(1, 2))
SIM = Job(model="gpt3-xl", n_gpus=8, fidelity="sim")
BATCH = Job(model="gpt3-xl", n_gpus=16, fidelity="analytic-batch")
MEASURED = Job(model="gpt3-xl", n_gpus=16, fidelity="measured")
MC = dict(samples=4, seed=7, **SPACE)
QUESTIONS = {
    "plan-sim": lambda s: s.plan(SIM, **SPACE),
    "robust-sim": lambda s: s.robust_plan(SIM, "pipeline-degraded", **SPACE),
    "robust-batch": lambda s: s.robust_plan(BATCH, "collective-degraded", **SPACE),
    "plan-measured": lambda s: s.plan(MEASURED, **SPACE),
    "mc-measured": lambda s: s.mc_robust_plan(MEASURED, "calm", **MC),
    "mc-sim": lambda s: s.mc_robust_plan(SIM, "spot-preemption", **MC),
}


class _RecordingCache(EvaluationCache):
    """An evaluation cache that remembers every cell written to it."""

    def __init__(self):
        super().__init__()
        self.written: dict = {}

    def put(self, key, evaluation):
        super().put(key, evaluation)
        self.written[key] = evaluation


def _answer(result) -> str:
    doc = result.to_dict()
    doc.pop("stats")
    return json.dumps(doc)


@pytest.fixture(scope="module")
def cold() -> dict:
    """Per question: the cold answer, the cache that run filled, and
    the session that ran it (whose measured profiles are now warm)."""
    out = {}
    for name, ask in QUESTIONS.items():
        cache = _RecordingCache()
        session = Session(Machine.summit(), cache=cache)
        out[name] = (_answer(ask(session)), cache, session)
    return out


@pytest.mark.parametrize("name", sorted(QUESTIONS))
def test_fully_warm_answer_is_the_cold_answer(cold, name):
    answer, cache, _session = cold[name]
    assert cache.written  # the cold run priced something
    assert _answer(QUESTIONS[name](Session(Machine.summit(), cache=cache))) == answer


@pytest.mark.parametrize("name", ["plan-measured", "mc-measured"])
def test_profile_warm_answer_is_the_cold_answer(cold, name):
    """Every cell re-priced, every execution profile reused."""
    answer, _cache, session = cold[name]
    assert len(session.profiles)  # the cold run executed something
    session.cache = EvaluationCache()
    assert _answer(QUESTIONS[name](session)) == answer


def test_replay_warm_answer_is_the_cold_answer(cold, monkeypatch):
    """A plan for another GPU count warms the session's replay memo.

    The two searches share proxy shapes and op costs, so the warm plan
    answers its replays from the memo; its bytes must not change.
    """
    calls = []
    real = measured.replay_events

    def counted(events, **costs):
        calls.append(costs)
        return real(events, **costs)

    monkeypatch.setattr(measured, "replay_events", counted)
    answer = cold["plan-measured"][0]
    session = Session(Machine.summit(), cache=EvaluationCache())
    session.plan(MEASURED.with_(n_gpus=32), **SPACE)
    del calls[:]
    assert _answer(session.plan(MEASURED, **SPACE)) == answer
    warm_replays = len(calls)
    del calls[:]
    fresh = Session(Machine.summit(), cache=EvaluationCache())
    assert _answer(QUESTIONS["plan-measured"](fresh)) == answer
    assert warm_replays < len(calls)  # the memo answered some


# no shrinking: a failing seed is as telling as a shrunk one, and far quicker
@settings(max_examples=6, deadline=None, derandomize=True, phases=(Phase.generate,))
@given(seed=st.integers(0, 2**32 - 1), share=st.floats(0.05, 0.95))
def test_partially_warm_answer_is_the_cold_answer(cold, seed, share):
    rng = random.Random(seed)
    for name, ask in QUESTIONS.items():
        answer, full, _session = cold[name]
        partial = EvaluationCache()
        for key, evaluation in full.written.items():
            if rng.random() < share:
                partial.put(key, evaluation)
        assert _answer(ask(Session(Machine.summit(), cache=partial))) == answer, name
