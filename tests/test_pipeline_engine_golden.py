"""Pipeline event engine pinned to a golden over a seeded grid.

``tests/data/pipeline_engine_golden.json`` holds, for every case of the
grid below, what :func:`~repro.parallel.simulate_pipeline` returned:
the makespan (``repr``, so bit-exact), the number of events the run's
:class:`~repro.cluster.events.EventLoop` processed, and a digest of the
task list (in record order), the per-link windows, ``link_busy`` and
``peak_in_flight``. The engine is held to it exactly: a change that
reorders one same-time event, drops one event or moves one float by an
ulp fails here.

The grid covers ``g_inter`` 1-10, ``m`` 1-40, integer-tie and random
float stage/link times, zero, scalar and per-link message times, and all
16 combinations of ``blocking_sends``/``prefer_backward``/
``bound_in_flight``/``link_contention``.

Regenerate (only when the engine is *meant* to change its answers)::

    PYTHONPATH=src python tests/test_pipeline_engine_golden.py
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import pickle
import random
from pathlib import Path

from repro.cluster.events import EventLoop
from repro.parallel import TaskRecord, simulate_pipeline

GOLDEN = Path(__file__).parent / "data" / "pipeline_engine_golden.json"
SEED = 20231
CASES_PER_FLAGS = 128
FLAGS = ("blocking_sends", "prefer_backward", "bound_in_flight", "link_contention")


def _times(rng: random.Random, n: int, ties: bool) -> float | list[float]:
    """Scalar or per-entry times; integer ties or random floats."""
    def one() -> float:
        if ties:
            return float(int(rng.random() * 4))  # 0, 1, 2 or 3: many ties
        return 0.05 + 2.95 * rng.random()

    return one() if rng.random() < 0.3 else [one() for _ in range(n)]


def cases():
    """The seeded grid: ``simulate_pipeline`` keyword arguments per case.

    Only ``Random.random`` is drawn, whose sequence for an integer seed
    is stable across Python versions.
    """
    rng = random.Random(SEED)
    for bits in itertools.product((False, True), repeat=len(FLAGS)):
        flags = dict(zip(FLAGS, bits))
        for _ in range(CASES_PER_FLAGS):
            g = 1 + int(rng.random() * 10)
            m = 1 + int(rng.random() * 40)
            ties = rng.random() < 0.5
            t_f = _times(rng, g, ties)
            t_b = _times(rng, g, ties)
            link_kind = rng.random()
            if link_kind < 0.25:
                msg = 0.0
            else:
                msg = _times(rng, g - 1, ties)
                if isinstance(msg, list) and link_kind < 0.4:
                    msg = [0.0 if rng.random() < 0.5 else v for v in msg]
            yield dict(
                g_inter=g, n_microbatches=m, t_f_stage=t_f, t_b_stage=t_b,
                msg_time=msg, **flags,
            )


def fingerprint(kwargs: dict) -> list:
    """Run one case; return its golden row ``[makespan, events, digest]``."""
    processed = []
    run = EventLoop.run

    def counted(loop, *args, **kw):
        before = loop.events_processed
        try:
            return run(loop, *args, **kw)
        finally:
            processed.append(loop.events_processed - before)

    EventLoop.run = counted
    try:
        tr = simulate_pipeline(**kwargs)
    finally:
        EventLoop.run = run
    payload = repr((
        [(t.gpu, t.kind, t.microbatch, t.start, t.end) for t in tr.tasks],
        tr.link_windows,
        tr.link_busy,
        tr.peak_in_flight,
    ))
    digest = hashlib.sha256(payload.encode()).hexdigest()[:24]
    return [repr(tr.makespan), sum(processed), digest]


def test_engine_matches_golden():
    golden = json.loads(GOLDEN.read_text())
    assert golden["seed"] == SEED
    rows = golden["cases"]
    grid = list(cases())
    assert len(grid) == len(rows) >= 2000
    mismatches = [
        (i, kwargs, row, got)
        for i, (kwargs, row) in enumerate(zip(grid, rows))
        if (got := fingerprint(kwargs)) != row
    ]
    assert not mismatches, (
        f"{len(mismatches)} of {len(rows)} cases differ; first: {mismatches[0]}"
    )


def test_grid_spans_the_declared_ranges():
    grid = list(cases())
    assert {k["g_inter"] for k in grid} == set(range(1, 11))
    assert {k["n_microbatches"] for k in grid} >= {1, 40}
    assert len({tuple(k[f] for f in FLAGS) for k in grid}) == 16
    assert any(k["msg_time"] == 0.0 for k in grid)
    assert any(isinstance(k["msg_time"], list) and 0.0 in k["msg_time"] for k in grid)


def test_records_keep_their_types_and_equality():
    a = simulate_pipeline(3, 4, [1.0, 2.0, 1.0], 2.0, 0.5, link_contention=True)
    b = simulate_pipeline(3, 4, [1.0, 2.0, 1.0], 2.0, 0.5, link_contention=True)
    assert type(a.tasks) is list and all(type(t) is TaskRecord for t in a.tasks)
    assert a.tasks[0] == TaskRecord(0, "F", 0, 0.0, 1.0)
    assert a == b
    assert a.link_windows[0][0] == (1.0, 1.5, "F0")
    assert type(a.link_windows) is list and type(a.link_windows[0]) is list
    assert a.tasks is a.tasks  # built once, then kept
    # equality, copies and pickles see the built lists, read or not
    assert dataclasses.replace(b) == b == pickle.loads(pickle.dumps(a))
    fresh = simulate_pipeline(3, 4, [1.0, 2.0, 1.0], 2.0, 0.5, link_contention=True)
    assert pickle.loads(pickle.dumps(fresh)) == a
    fresh.tasks = []  # an assigned list is kept as given
    assert fresh.tasks == [] and fresh != a


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    rows = [fingerprint(kwargs) for kwargs in cases()]
    lines = ",\n".join(json.dumps(row) for row in rows)
    GOLDEN.write_text(f'{{"seed": {SEED}, "cases": [\n{lines}\n]}}\n')
    print(f"wrote {len(rows)} cases to {GOLDEN}")
