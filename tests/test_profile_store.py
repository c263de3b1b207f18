"""One session executes each measured profile once.

A :class:`~repro.autotune.measured.ProfileStore` memoises the executed
proxy runs of the ``measured`` fidelity under single-flight. Every
:class:`~repro.api.Session` owns one, so a shape executes once per
session however many requests, candidates or pool threads ask for it,
while a fresh session starts cold. Executions are counted by replacing
the two module-level execution functions, which the store calls by name.
"""

from __future__ import annotations

import collections
import json
import threading
import time

import pytest

from repro.api import Job, Machine, Session
from repro.autotune import EvaluationCache, make_estimator, measured
from repro.autotune.drift import candidate_for_workload
from repro.autotune.measured import ProfileStore
from repro.cluster import SUMMIT
from repro.models import get_spec

SPACE = dict(frameworks=("axonn", "axonn+samo"), microbatch_sizes=(1, 2))
JOB = Job(model="gpt3-xl", n_gpus=16, fidelity="measured")


@pytest.fixture
def runs(monkeypatch):
    """Every execution, as ``(kind, args, kwargs)``, in call order."""
    log: list = []
    lock = threading.Lock()

    def counted(kind, execute):
        def run(*args, **kwargs):
            with lock:
                log.append((kind, args, tuple(sorted(kwargs.items()))))
            return execute(*args, **kwargs)

        return run

    monkeypatch.setattr(
        measured, "execute_pipeline", counted("pipe", measured.execute_pipeline)
    )
    monkeypatch.setattr(
        measured, "execute_grad_sync", counted("coll", measured.execute_grad_sync)
    )
    return log


def _answer(result) -> str:
    doc = result.to_dict()
    doc.pop("stats", None)
    return json.dumps(doc)


def _session(**kwargs) -> Session:
    return Session(Machine.summit(), cache=EvaluationCache(), **kwargs)


class TestSessionScope:
    def test_second_plan_executes_nothing(self, runs):
        session = _session()
        first = _answer(session.plan(JOB, **SPACE))
        assert runs
        executed = len(runs)
        session.cache = EvaluationCache()  # every cell is priced again
        assert _answer(session.plan(JOB, **SPACE)) == first
        assert len(runs) == executed

    def test_breakdown_reuses_the_plans_profiles(self, runs):
        session = _session()
        session.plan(JOB, **SPACE)
        executed = len(runs)
        session.breakdown(JOB.with_(framework="axonn+samo"))
        assert len(runs) == executed

    def test_fresh_session_executes_again(self, runs):
        _session().plan(JOB, **SPACE)
        first = list(runs)
        _session().plan(JOB, **SPACE)
        assert runs[len(first):] == first

    def test_each_shape_executes_once(self, runs):
        session = _session()
        session.plan(JOB, **SPACE)
        session.plan(JOB.with_(n_gpus=32), **SPACE)
        counts = collections.Counter(runs)
        assert set(counts.values()) == {1}
        assert len(session.profiles) == len(counts)

    def test_thundering_herd_executes_each_shape_once(self, runs, monkeypatch):
        """Eight threads plan the same job on one session at once.

        A slow execution holds every shape's flight open long enough
        that the other threads' pool workers ask for it meanwhile.
        """
        execute = measured.execute_pipeline

        def slow(*args, **kwargs):
            time.sleep(0.01)
            return execute(*args, **kwargs)

        monkeypatch.setattr(measured, "execute_pipeline", slow)
        session = _session()
        barrier = threading.Barrier(8)
        answers: list = []

        def ask():
            barrier.wait()
            answers.append(_answer(session.plan(JOB, **SPACE)))

        threads = [threading.Thread(target=ask) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(answers) == 8 and len(set(answers)) == 1
        counts = collections.Counter(runs)
        assert set(counts.values()) == {1}
        assert len(session.profiles) == len(counts)
        assert answers[0] == _answer(_session().plan(JOB, **SPACE))

    def test_seeds_do_not_alias(self, runs):
        session = _session()
        spec = get_spec("gpt3-xl")
        config = candidate_for_workload(spec, "axonn+samo", 16)
        ests = {
            seed: make_estimator(
                "measured", spec, SUMMIT, seed=seed, profiles=session.profiles
            )
            for seed in (0, 7)
        }
        for est in ests.values():
            est.evaluate(config)
        seeds = [dict(kwargs)["seed"] for _kind, _args, kwargs in runs]
        assert sorted(set(seeds)) == [0, 7]
        assert seeds.count(0) == seeds.count(7)
        assert len(session.profiles) == len(runs)
        assert ests[7].evaluate(config).fidelity == "measured[s7]"
        assert len(session.profiles) == len(runs)  # a second ask is a hit

    def test_answers_match_private_profiles(self):
        """The same bytes as when every request executes its own profiles."""
        questions = [
            lambda s: s.plan(JOB, **SPACE),
            lambda s: s.plan(JOB.with_(n_gpus=64), **SPACE),
            lambda s: s.breakdown(JOB.with_(framework="axonn+samo")),
            lambda s: s.mc_robust_plan(JOB, "calm", samples=4, seed=3, **SPACE),
        ]
        shared = _session()
        private = _session()
        for ask in questions:
            private.profiles = ProfileStore()
            assert _answer(ask(shared)) == _answer(ask(private))


class TestSingleFlight:
    def test_failed_execution_wakes_waiters_and_is_retried(self, monkeypatch):
        """The owner's error reaches every waiter; nothing is cached.

        The owner's execution holds its flight open until all three
        waiters block on it, so each of them waits rather than owns.
        """
        waiting = threading.Semaphore(0)

        class CountedFlight(measured.Flight):
            __slots__ = ()

            def result(self, timeout=None):
                waiting.release()
                return super().result(timeout)

        monkeypatch.setattr(measured, "Flight", CountedFlight)
        boom = RuntimeError("executor died")
        calls = []

        def failing(*args, **kwargs):
            calls.append(args)
            for _ in range(3):
                assert waiting.acquire(timeout=10)
            raise boom

        monkeypatch.setattr(measured, "execute_pipeline", failing)
        store = ProfileStore()
        errors: list = []

        def ask():
            try:
                store.pipeline(2, 2, False, False, 0)
            except Exception as err:  # noqa: BLE001 - recorded for the asserts
                errors.append(err)

        owner = threading.Thread(target=ask)
        owner.start()
        while not calls:
            time.sleep(0.001)
        waiters = [threading.Thread(target=ask) for _ in range(3)]
        for t in waiters:
            t.start()
        for t in waiters + [owner]:
            t.join()
        assert len(calls) == 1
        assert len(errors) == 4
        assert sum(err is boom for err in errors) == 1
        assert all(err.__cause__ is boom for err in errors if err is not boom)
        assert len(store) == 0

        monkeypatch.undo()
        profile = store.pipeline(2, 2, False, False, 0)
        assert profile.g_exec == 2 and len(store) == 1
        assert store.pipeline(2, 2, False, False, 0) is profile

    def test_key_holds_the_whole_identity(self, runs):
        store = ProfileStore()
        store.pipeline(2, 2, False, False, 0)
        for args in (
            (3, 2, False, False, 0),
            (2, 3, False, False, 0),
            (2, 2, True, False, 0),
            (2, 2, False, True, 0),
            (2, 2, False, False, 1),
        ):
            store.pipeline(*args)
        store.collective(2, False, 4, 0)
        for args in ((3, False, 4, 0), (2, True, 4, 0), (2, False, 2, 0), (2, False, 4, 1)):
            store.collective(*args)
        assert len(runs) == len(store) == 11
        store.pipeline(2, 2, False, False, 0)
        store.collective(2, False, 4, 0)
        assert len(runs) == 11
