"""The benchmark's own tests (not part of the repository's test suite).

::

    python3 -m pytest perfbench/selftest.py -q
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import client  # noqa: E402  (puts the checkout's src/ on sys.path)
import run  # noqa: E402
import streams  # noqa: E402
import tracing  # noqa: E402


@pytest.mark.parametrize("workload", sorted(streams.WORKLOADS))
def test_quick_mode_prints_every_end_to_end_metric(workload):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "1", "--trace", "0", "--quick"],
        capture_output=True, text=True, timeout=300, check=True,
    )
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    assert set(result["metrics"]) == set(run.END_TO_END)
    for name, unit in run.END_TO_END.items():
        assert result["metrics"][name]["unit"] == unit
        assert any(
            line.split()[:1] == [name] and line.split()[2] == unit
            for line in lines[:-1]
        ), name


@pytest.mark.parametrize("workload", sorted(streams.WORKLOADS))
def test_stream_is_a_function_of_the_seed(workload):
    n = 2 * streams.WORKLOADS[workload].blocks_per_episode * len(
        streams.WORKLOADS[workload].block
    )
    first = streams.stream_bytes(workload, 7, n)
    assert first == streams.stream_bytes(workload, 7, n)
    assert first != streams.stream_bytes(workload, 8, n)
    assert len(first.splitlines()) == n


def test_stream_does_not_depend_on_the_string_hash_seed():
    # the reference answers are computed in another process than the
    # served ones, so both must generate the same stream
    code = (
        "import hashlib, streams; print(hashlib.sha256(b''.join("
        "streams.stream_bytes(w, 5, 120) for w in sorted(streams.WORKLOADS)"
        ")).hexdigest())"
    )
    digests = {
        subprocess.run(
            [sys.executable, "-c", code], cwd=HERE, capture_output=True, text=True,
            check=True, env={**os.environ, "PYTHONHASHSEED": str(h)},
        ).stdout
        for h in (1, 2)
    }
    assert len(digests) == 1


@pytest.mark.parametrize("workload", sorted(streams.WORKLOADS))
def test_no_two_store_requests_of_an_episode_share_a_slot(workload):
    for index in range(3):
        episode = streams.episode(workload, 3, index)
        slots = [
            (r["params"]["job"]["model"], r["params"]["job"]["n_gpus"])
            for r in episode
            if r["method"] in ("plan", "robust_plan", "mc_robust_plan")
        ]
        assert len(slots) == len(set(slots))


def _bindings() -> dict:
    """Every attribute of every repro module and class, by identity."""
    out = {}
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] != "repro" or module is None:
            continue
        for attr, value in vars(module).items():
            out[(name, attr)] = value
            if isinstance(value, type) and value.__module__.startswith("repro"):
                for cattr, cvalue in vars(value).items():
                    out[(name, attr, cattr)] = cvalue
    return out


def test_restore_removes_every_wrapper():
    import repro.serve
    from repro.api import Session

    tracing.install(tracing.SpanRecorder())()  # loads every module it wraps
    before = _bindings()
    original_plan = Session.__dict__["plan"]
    rec = tracing.SpanRecorder()
    restore = tracing.install(rec)
    assert Session.__dict__["plan"] is not original_plan
    request = streams.episode("plan-cold", 1, 0)[0]
    client.round_trip(repro.serve.PlanningServer(), request, rec, 0)
    assert rec.spans
    restore()
    after = _bindings()
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []
    # an untraced request that follows records nothing
    n = len(rec.spans)
    client.round_trip(repro.serve.PlanningServer(), request)
    assert len(rec.spans) == n and not rec.counts.get("sim.events")


def test_self_time_subtracts_the_union_of_children():
    spans = [
        ["root", 0.0, 10.0, None, 0, True, None],
        ["a", 1.0, 4.0, 0, 0, True, None],
        ["b", 3.0, 6.0, 0, 0, False, None],  # overlaps a: union is 1..6
        ["c", 3.5, 4.0, 2, 0, False, None],
    ]
    assert tracing.self_times(spans) == [5.0, 3.0, 2.5, 0.5]


def test_tail_has_ten_samples_beyond_it():
    latency, pct = run.tail([float(i) for i in range(100)])
    assert latency == 89.0 and pct == 90.0


def test_times_scale_to_the_reference_speed():
    ref = client.REFERENCE_CALIBRATION_S
    assert client.speed_factors([ref] * 20) == [1.0] * 20
    # a host twice as slow halves every time; one slow loop is outvoted
    slow = [2 * ref] * 20
    slow[7] = 9 * ref
    assert client.speed_factors(slow) == [0.5] * 20


@pytest.mark.parametrize("workload", sorted(streams.WORKLOADS))
def test_a_measuring_unit_is_whole_blocks_of_an_episode(workload):
    w = streams.WORKLOADS[workload]
    unit = run.measuring_unit(workload)
    episode = w.blocks_per_episode * len(w.block)
    assert unit % len(w.block) == 0 and episode % unit == 0
