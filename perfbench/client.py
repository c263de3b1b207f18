"""One closed-loop client driving ``PlanningServer.handle`` in-process.

Run by ``run.py`` as a child process, so the peak memory it reports is
that of the process that served the workload::

    python3 perfbench/client.py MODE --workload W --seed N --seconds S --out F

Modes:

* ``probe`` — set up (import ``repro``, build the server, load the
  snapshot for a warm workload) and report the set-up time only;
* ``prep`` — serve a warm workload's episode once on an empty store and
  save the store as its snapshot (untimed);
* ``serve`` — set up, then send requests one at a time for ``S``
  seconds of client time at the reference host speed (see
  ``calibrate``), or with ``--count N`` the first ``N`` requests of the
  stream;
* ``trace`` — ``serve`` with every layer wrapped by :mod:`tracing`.

Each round trip is what the stdio transport does around ``handle``: the
client encodes the request with ``json.dumps``, the server side decodes
it with ``json.loads``, handles it and encodes the response with
``json.dumps``, and the client decodes that with ``json.loads``. Latency
runs from the first encode to the last decode. Answer digests and
server rebuilds between episodes happen off the client clock.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import streams  # noqa: E402  (benchmark-local, next to this file)


def answer_digest(answer: dict) -> str:
    """Digest of a decoded response with its ``stats`` block removed."""
    if "error" in answer:
        body = {"error": answer["error"]}
    else:
        body = {k: v for k, v in answer["result"].items() if k != "stats"}
    return hashlib.sha256(json.dumps(body).encode()).hexdigest()


def searched(answer: dict) -> int | None:
    """The ``stats.candidates`` a search reports (None for other answers)."""
    stats = (answer.get("result") or {}).get("stats")
    return stats["candidates"] if stats else None


def cells(answer: dict) -> int:
    """Candidates x scenario columns answered (1 for a single config)."""
    if "result" not in answer:
        return 0
    n = searched(answer)
    return 1 if n is None else n


def round_trip(server, request: dict, rec=None, number=None) -> tuple[dict, int]:
    """One request through ``handle`` with the transport's JSON on both ends.

    With a span recorder, the spans of the round trip carry ``number``.
    """
    if rec is None:
        line = json.dumps(request)
        out = json.dumps(server.handle(json.loads(line)))
        return json.loads(out), len(out)
    rec.request = number
    root = rec.begin("request")
    span = rec.begin("client.encode")
    line = json.dumps(request)
    rec.end(span)
    span = rec.begin("serve.decode")
    payload = json.loads(line)
    rec.end(span)
    span = rec.begin("serve.handle")
    response = server.handle(payload)
    rec.end(span)
    span = rec.begin("serve.encode")
    out = json.dumps(response)
    rec.end(span)
    span = rec.begin("client.decode")
    answer = json.loads(out)
    rec.end(span)
    rec.end(root)
    rec.request = None
    return answer, len(out)


#: calibrations whose median gives the host speed at one point of a run
CALIBRATION_WINDOW = 9
#: calibration loop time of the nominal host all times are scaled to: about
#: the loop's median on a 2-vCPU x86_64 VM with Python 3.11
REFERENCE_CALIBRATION_S = 270e-6


def calibrate() -> float:
    """Seconds a fixed pure-Python loop takes: the host's speed just now.

    The serving processes run it before every request, off the clock, so
    that ``run.py`` can scale each latency to a reference host speed.
    """
    t = time.perf_counter()
    total, table = 0.0, {}
    for i in range(2000):
        total += i * 0.5
        table[i & 63] = total
    return time.perf_counter() - t


def speed_factors(calib: list) -> list:
    """Per calibration: the reference loop time over the median one near it."""
    half = CALIBRATION_WINDOW // 2
    return [
        REFERENCE_CALIBRATION_S / statistics.median(calib[max(0, i - half) : i + half + 1])
        for i in range(len(calib))
    ]


def build_server(workload: str, snapshot: str | None):
    from repro.serve import PersistentEvaluationStore, PlanningServer

    if streams.WORKLOADS[workload].warm:
        return PlanningServer(store=PersistentEvaluationStore(path=snapshot))
    return PlanningServer()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("probe", "prep", "serve", "trace"))
    parser.add_argument("--workload", required=True, choices=sorted(streams.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument(
        "--count", type=int, default=None,
        help="serve this many requests instead of --seconds of them",
    )
    parser.add_argument("--snapshot", default=None)
    parser.add_argument("--spans", default=None, help="trace mode: span dump path")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    workload = streams.WORKLOADS[args.workload]

    if args.mode == "prep":
        if os.path.exists(args.snapshot):
            os.remove(args.snapshot)
        from repro.serve import PersistentEvaluationStore, PlanningServer

        server = PlanningServer(store=PersistentEvaluationStore(path=args.snapshot))
        for request in streams.episode(args.workload, args.seed, 0):
            round_trip(server, request)
        result = {"saved": server.store.save()}
        with open(args.out, "w") as fh:
            json.dump(result, fh)
        return 0

    rec = restore = None
    t0 = time.perf_counter()
    if args.mode == "trace":
        import tracing

        rec = tracing.SpanRecorder()
        restore = tracing.install(rec)
    server = build_server(args.workload, args.snapshot)
    setup_s = time.perf_counter() - t0
    if args.mode == "probe":
        calib = [calibrate() for _ in range(CALIBRATION_WINDOW)]
        with open(args.out, "w") as fh:
            json.dump({"setup_s": setup_s, "calib": calib}, fh)
        return 0
    if not workload.warm:
        # off the clock, on a server of its own: one block of an episode no
        # run serves, so lazy imports are done before the first timed request
        warmup = build_server(args.workload, args.snapshot)
        for request in streams.episode(args.workload, args.seed, -1)[: len(workload.block)]:
            round_trip(warmup, request)
        if rec is not None:
            rec.spans.clear()
            rec.counts.clear()

    stores = []  # stats of every store served from, one per episode
    latencies, sizes, answered, candidates, sent = [], [], [], [], []
    busy = 0.0
    calib = []

    def done() -> bool:
        if args.count is not None:
            return len(latencies) >= args.count
        return busy >= args.seconds

    for index in itertools.count():
        episode = streams.episode(args.workload, args.seed, index)
        if index and not workload.warm:
            stores.append(server.store.stats())
            server = build_server(args.workload, args.snapshot)
        for position, request in enumerate(episode):
            if done():
                break
            calib.append(calibrate())
            t = time.perf_counter()
            answer, size = round_trip(server, request, rec, len(latencies))
            dt = time.perf_counter() - t
            # client time at the reference speed, from the loop times so far
            busy += dt * REFERENCE_CALIBRATION_S / statistics.median(
                calib[-CALIBRATION_WINDOW:]
            )
            latencies.append(dt)
            sizes.append(size)
            answered.append(cells(answer))
            candidates.append(searched(answer) or 0)
            # warm replays repeat episode 0: reference it by its position
            key = position if workload.warm else request["id"]
            sent.append([key, answer_digest(answer), answer.get("error")])
        if done():
            break
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    stores.append(server.store.stats())

    result = {
        "setup_s": setup_s,
        "rss_mb": rss_mb,
        "latencies": latencies,
        "sizes": sizes,
        "cells": answered,
        "candidates": candidates,
        "sent": sent,
        "stores": stores,
        "calib": calib,
    }
    if rec is not None:
        restore()
        result["layers"] = tracing.layer_metrics(rec, len(latencies))
        if args.spans:
            rec.write(args.spans)
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
