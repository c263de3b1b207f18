"""The planner benchmark: seeded JSON-RPC streams through one server.

::

    python3 perfbench/run.py --workload plan-cold --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout (``src/repro`` next to this
directory); the program under test is imported from there. Workloads
and their request mix are defined in :mod:`streams`.

``--trace 0`` measures the end-to-end metrics of an untraced run. The
stream is served by ``REPEATS`` processes one after another: the first
for ``--seconds / REPEATS`` seconds of client time, cut back to a whole
number of :func:`measuring_unit` requests, the others for the same
requests.

Times are stated at a reference host speed. The benchmark shares its
host, whose speed drifts by half and more over minutes, so each serving
process runs a fixed pure-Python loop (``client.calibrate``) before every
request, off the clock, and each time is scaled by
``client.REFERENCE_CALIBRATION_S`` over the median of the
``client.CALIBRATION_WINDOW`` loop times nearest to it; the client time
that bounds a run is scaled the same way. The loop does not run the
program, so a slower program still reads slower. A request's latency is
then the least of its scaled round trips (the best of ``REPEATS`` cold
answers, or of every replay for ``plan-warm``), which drops one-off
stalls. The raw, unscaled figures are printed beside the result.

* ``setup_s`` — import ``repro`` and build the server (plus load the
  snapshot for ``plan-warm``): the median over the serving processes
  and ``PROBES`` processes that only set up, after one unmeasured
  warm-up process;
* ``latency_p50_ms`` — median request latency, encode to decoded answer;
* ``latency_tail_ms`` — latency at the highest percentile with at least
  ten requests beyond it (printed with the percentile and count);
* ``cells_per_s`` — candidate x scenario cells answered per second of
  client time, summed over the requests at their latencies;
* ``peak_rss_mb`` — peak resident memory of a serving process (the
  largest of the ``REPEATS``);
* ``correct_share`` — share of requests answered correctly. Its
  complement, ``failed_share``, is printed beside it: a failure is a
  JSON-RPC error or an answer that differs from the reference, which a
  fresh server on an empty store computes off the clock.

``--trace 1`` serves the stream untraced for ``--seconds / REPEATS``
seconds and then the same requests traced from outside
(:mod:`tracing`), and reports the per-layer metrics: each ``*_ms`` is a
layer's self time per request answered (``store.load_ms`` is the total
snapshot load time), each work count is per request answered, and
``trace.overhead_share`` compares the two runs' median latencies. The
traced counts are checked against what the program itself reports; a
disagreement fails the run.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench")
#: serving processes of an untraced run; each request's best round trip counts
REPEATS = 2
#: workloads whose runs are cut to whole pairs of blocks, not whole episodes:
#: their episodes are long next to a run, and each pair (one dear and one
#: cheap stratum) already holds the request mix at its average cost
PAIR_CUT = {"plan-cold", "measured-cold"}
#: set-up-only processes whose set-up times join the serving processes'
PROBES = 1
#: every child must end this long after the benchmark started
DEADLINE_S = 170.0
STARTED = time.monotonic()

import client  # noqa: E402  (benchmark-local, next to this file)
import streams  # noqa: E402

END_TO_END = {
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "cells_per_s": "cells/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "correct_share": "share",
}

#: per-layer metric -> unit; counts not listed as totals are per request
PER_LAYER = {
    "serve.decode_ms": "ms",
    "serve.encode_ms": "ms",
    "serve.response_kb": "KB",
    "serve.dispatch_ms": "ms",
    "client.codec_ms": "ms",
    "session.self_ms": "ms",
    "space.enumerate_ms": "ms",
    "space.candidates": "count",
    "cache.key_ms": "ms",
    "cache.keys": "count",
    "cache.lookup_ms": "ms",
    "cache.hit_ratio": "ratio",
    "store.acquire_ms": "ms",
    "store.fulfil_ms": "ms",
    "store.entries": "count",
    "store.load_ms": "ms",
    "store.loaded": "count",
    "estimator.price_ms": "ms",
    "estimator.rows": "count",
    "estimator.calls": "count",
    "evaluation.materialize_ms": "ms",
    "evaluation.count": "count",
    "result.rank_ms": "ms",
    "result.to_dict_ms": "ms",
    "stochastic.sample_ms": "ms",
    "stochastic.timelines": "count",
    "sim.pipeline_ms": "ms",
    "sim.calls": "count",
    "sim.events": "count",
    "sim.overlap_ms": "ms",
    "placement.search_ms": "ms",
    "pool.parallelism": "ratio",
    "exec.pipeline_ms": "ms",
    "exec.grad_sync_ms": "ms",
    "exec.runs": "count",
    "exec.replay_ms": "ms",
    "comm.bytes.samo": "bytes",
    "comm.bytes.dense": "bytes",
    "comm.calls.samo": "count",
    "comm.calls.dense": "count",
    "trace.overhead_share": "share",
}

#: work counts reported per request answered (the rest are run totals)
PER_REQUEST = {
    "space.candidates", "cache.keys", "estimator.rows", "estimator.calls",
    "evaluation.count", "stochastic.timelines", "sim.calls", "sim.events",
    "exec.runs", "comm.bytes.samo", "comm.bytes.dense", "comm.calls.samo",
    "comm.calls.dense",
}


class BenchError(RuntimeError):
    pass


def snapshot_path(workload: str) -> str:
    return os.path.join(OUT, f"{workload}.store.jsonl")


def child(mode: str, args, tag: str, *extra, seconds=None) -> dict:
    """Run :mod:`client` in its own process and return its result."""
    out = os.path.join(OUT, f"{args.workload}-{tag}.json")
    cmd = [
        sys.executable, os.path.join(HERE, "client.py"), mode,
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(seconds or args.seconds), "--out", out,
        "--snapshot", snapshot_path(args.workload),
        *extra,
    ]
    try:
        # the child's stdout goes to our stderr: our stdout ends in the result
        done = subprocess.run(
            cmd, stdout=sys.stderr, check=False,
            # a fixed string hash seed: one less source of run-to-run spread
            env={**os.environ, "PYTHONHASHSEED": "0"},
            timeout=max(1.0, DEADLINE_S - (time.monotonic() - STARTED)),
        )
    except subprocess.TimeoutExpired as err:
        raise BenchError(f"client {mode} timed out") from err
    if done.returncode != 0:
        raise BenchError(f"client {mode} exited with code {done.returncode}")
    with open(out) as fh:
        return json.load(fh)


def tail(latencies: list) -> tuple[float, float]:
    """(latency, percentile) of the highest percentile with 10 samples beyond."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def reference_digests(workload: str, seed: int, keys: set) -> dict:
    """Digest of each request's answer from a fresh server on an empty store."""
    from repro.serve import PlanningServer

    w = streams.WORKLOADS[workload]
    if w.warm:
        by_key = dict(enumerate(streams.episode(workload, seed, 0)))
    else:
        by_key = {r["id"]: r for r in streams.requests(workload, seed, max(keys) + 1)}
    return {
        key: client.answer_digest(client.round_trip(PlanningServer(), by_key[key])[0])
        for key in sorted(keys)
    }


def failures(runs: list, refs: dict) -> list:
    """(request key, reason) of every failed request of ``runs``."""
    out = []
    for run in runs:
        for key, digest, error in run["sent"]:
            if error is not None:
                out.append((key, f"error {error}"))
            elif digest != refs[key]:
                out.append((key, "answer differs from the reference"))
    return out


def count_checks(workload: str, traced: dict) -> list:
    """Traced counts that disagree with what the program reports."""
    layers, stores = traced["layers"], traced["stores"]
    hits = sum(s["hits"] for s in stores)
    misses = sum(s["misses"] for s in stores)
    checks = [
        ("cache.keys", layers["cache.keys"], sum(traced["candidates"])),
        (
            "estimator.rows (searches only)",
            layers["estimator.rows"] - layers["estimator.breakdown_rows"],
            misses,
        ),
        ("cache hits", layers["cache.hits"], hits),
        ("cache lookups", layers["cache.lookups"], hits + misses),
        (
            "sim.events > 0",
            layers["sim.events"] > 0,
            workload == "sim-cold",
        ),
    ]
    return [
        f"{name}: traced {got} != program {want}"
        for name, got, want in checks
        if got != want
    ]


def best_round_trips(runs: list, scale: bool) -> tuple[dict, dict]:
    """Each request's least (scaled) latency over ``runs``, and its cells."""
    best, cells = {}, {}
    for run in runs:
        factors = client.speed_factors(run["calib"]) if scale else itertools.repeat(1.0)
        for (key, _, _), latency, n, f in zip(
            run["sent"], run["latencies"], run["cells"], factors
        ):
            best[key] = min(latency * f, best.get(key, latency * f))
            cells[key] = n
    return best, cells


def setup_time(run: dict, scale: bool) -> float:
    """A process's set-up time, scaled by the loop times that followed it."""
    if not scale:
        return run["setup_s"]
    window = run["calib"][: client.CALIBRATION_WINDOW]
    return run["setup_s"] * client.REFERENCE_CALIBRATION_S / statistics.median(window)


def measuring_unit(workload: str) -> int:
    """Requests a measured run is a whole number of.

    Whole episodes, in which every slot serves once, so that a run holds
    the same request mix at the same cost whatever the seed; whole pairs
    of blocks for the workloads in ``PAIR_CUT``.
    """
    w = streams.WORKLOADS[workload]
    blocks = 2 if workload in PAIR_CUT else w.blocks_per_episode
    return blocks * len(w.block)


def cut(run: dict, n: int) -> dict:
    """``run`` with only its first ``n`` requests."""
    per_request = ("latencies", "cells", "sent", "calib")
    return {**run, **{key: run[key][:n] for key in per_request}}


def end_to_end(
    runs: list, probes: list, failed: int, attempted: int, scale: bool = True
) -> dict:
    best, cells = best_round_trips(runs, scale)
    latencies = list(best.values())
    latency, pct = tail(latencies)
    return {
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_tail_ms": latency * 1e3,
        "cells_per_s": sum(cells.values()) / sum(latencies),
        "peak_rss_mb": max(run["rss_mb"] for run in runs),
        "setup_s": statistics.median(setup_time(p, scale) for p in runs + probes),
        "correct_share": 1.0 - failed / attempted,
        "_tail_pct": pct,
        "_n": len(latencies),
    }


def per_layer(traced: dict, untraced: dict) -> dict:
    layers = dict(traced["layers"])
    n = max(len(traced["latencies"]), 1)
    for key in PER_REQUEST:
        layers[key] = layers[key] / n
    layers["store.entries"] = sum(s["entries"] for s in traced["stores"])
    layers["serve.response_kb"] = statistics.mean(traced["sizes"]) / 1024.0
    layers["trace.overhead_share"] = (
        statistics.median(traced["latencies"])
        / statistics.median(untraced["latencies"])
        - 1.0
    )
    return layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(streams.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--quick", action="store_true", help="a smoke run of one second"
    )
    args = parser.parse_args(argv)
    repeats, probes = REPEATS, PROBES
    if args.quick:
        args.seconds = 1.0
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: no program source at {ROOT}/src/repro", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)

    try:
        if streams.WORKLOADS[args.workload].warm:
            child("prep", args, "prep")
        if args.trace:
            untraced = child("serve", args, "serve", seconds=args.seconds / repeats)
            spans = os.path.join(OUT, f"{args.workload}-spans.jsonl")
            count = str(len(untraced["sent"]))
            traced = child("trace", args, "trace", "--spans", spans, "--count", count)
            served = [untraced, traced]
        else:
            child("probe", args, "warmup")  # byte-compiles, fills the page cache
            first = child("serve", args, "serve0", seconds=args.seconds / repeats)
            unit = measuring_unit(args.workload)
            count = max(unit, len(first["sent"]) // unit * unit)
            served = [first] + [
                child("serve", args, f"serve{i}", "--count", str(count))
                for i in range(1, repeats)
            ]
            runs = [cut(first, count)] + served[1:]
            setups = [child("probe", args, f"probe{i}") for i in range(probes)]
    except BenchError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    finally:
        if os.path.exists(snapshot_path(args.workload)):
            os.remove(snapshot_path(args.workload))

    # every answer served is checked, also those cut from the measurement
    keys = {key for run in served for key, _, _ in run["sent"]}
    refs = reference_digests(args.workload, args.seed, keys)
    failed = failures(served, refs)
    attempted = sum(len(run["sent"]) for run in served)
    for key, reason in failed[:10]:
        print(f"  failed request {key}: {reason}", file=sys.stderr)

    head = (
        f"{args.workload} seed={args.seed} trace={args.trace}: "
        f"{attempted} requests, {len(failed)} failed "
        f"(failed_share {len(failed) / attempted:.6f})"
    )
    print(head)
    problems = []
    if args.trace:
        metrics = per_layer(traced, untraced)
        units = PER_LAYER
        problems = count_checks(args.workload, traced)
        for problem in problems:
            print(f"  count check failed: {problem}", file=sys.stderr)
        for name in PER_LAYER:
            print(f"  {name:28s} {metrics[name]:14.6g} {PER_LAYER[name]}")
    else:
        metrics = end_to_end(runs, setups, len(failed), attempted)
        raw = end_to_end(runs, setups, len(failed), attempted, scale=False)
        units = END_TO_END
        print(f"  {'':28s} {'scaled':>14s} {'':7s} {'raw':>14s}")
        for name in END_TO_END:
            unit = END_TO_END[name]
            line = f"  {name:28s} {metrics[name]:14.6g} {unit:7s} {raw[name]:14.6g}"
            if name == "latency_tail_ms":
                line += f"  (p{metrics['_tail_pct']:.1f} of {metrics['_n']} requests)"
            print(line)
    print(
        json.dumps(
            {
                "correct": not failed and not problems,
                "attempted": attempted,
                "failed": len(failed),
                "metrics": {
                    name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
