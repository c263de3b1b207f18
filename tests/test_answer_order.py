"""An answer depends only on its inputs, not on which cells were warm.

``plan`` and ``robust_plan`` must serialize byte-identically (``stats``
aside, which counts the hits) whether the evaluation cache was cold,
warm for a random subset of the cells, or fully warm. Before candidates
were listed in enumeration order, warm cells moved to the front of
``evaluations``, and every stable sort over tied totals then picked by
cache history.
"""

from __future__ import annotations

import json
import random

import pytest
from hypothesis import Phase, given, settings, strategies as st

from repro.api import Job, Machine, Session
from repro.autotune import EvaluationCache

SPACE = dict(frameworks=("axonn", "axonn+samo"), microbatch_sizes=(1, 2))
SIM = Job(model="gpt3-xl", n_gpus=8, fidelity="sim")
BATCH = Job(model="gpt3-xl", n_gpus=16, fidelity="analytic-batch")
QUESTIONS = {
    "plan-sim": lambda s: s.plan(SIM, **SPACE),
    "robust-sim": lambda s: s.robust_plan(SIM, "pipeline-degraded", **SPACE),
    "robust-batch": lambda s: s.robust_plan(BATCH, "collective-degraded", **SPACE),
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
    """Per question: the cold answer and the cache that run filled."""
    out = {}
    for name, ask in QUESTIONS.items():
        cache = _RecordingCache()
        out[name] = (_answer(ask(Session(Machine.summit(), cache=cache))), cache)
    return out


@pytest.mark.parametrize("name", sorted(QUESTIONS))
def test_fully_warm_answer_is_the_cold_answer(cold, name):
    answer, cache = cold[name]
    assert cache.written  # the cold run priced something
    assert _answer(QUESTIONS[name](Session(Machine.summit(), cache=cache))) == answer


# no shrinking: a failing seed is as telling as a shrunk one, and far quicker
@settings(max_examples=6, deadline=None, derandomize=True, phases=(Phase.generate,))
@given(seed=st.integers(0, 2**32 - 1), share=st.floats(0.05, 0.95))
def test_partially_warm_answer_is_the_cold_answer(cold, seed, share):
    rng = random.Random(seed)
    for name, ask in QUESTIONS.items():
        answer, full = cold[name]
        partial = EvaluationCache()
        for key, evaluation in full.written.items():
            if rng.random() < share:
                partial.put(key, evaluation)
        assert _answer(ask(Session(Machine.summit(), cache=partial))) == answer, name
