"""Write the benchmark's baseline snapshot, ``perfbench/baseline.json``.

::

    python3 perfbench/snapshot.py --seed 1 --seconds 10

Runs every workload untraced and traced once and records the
end-to-end and per-layer metrics, each layer's share of the served
request time, and, for ``plan-cold`` and ``plan-warm``, the planner
layers' split beside the cProfile split ROADMAP.md quotes for an
in-process ``analytic-batch`` plan of gpt3-xl on 64 GPUs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import streams  # noqa: E402

#: ROADMAP's profiled split of a cold in-process plan (share of the plan)
ROADMAP_COLD_SPLIT = {
    "cache.key_ms": 0.35,
    "space.enumerate_ms": 0.17,
    "evaluation.materialize_ms": 0.16,
    "estimator.price_ms": 0.18,
}
#: the planner-side layers the ROADMAP split divides a plan into
PLANNER_LAYERS = (
    "session.self_ms", "space.enumerate_ms", "cache.key_ms", "cache.lookup_ms",
    "store.acquire_ms", "store.fulfil_ms", "estimator.price_ms",
    "evaluation.materialize_ms", "result.rank_ms",
)


def measure(workload: str, seed: int, seconds: float, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return {k: v["value"] for k, v in result["metrics"].items()}


def shares(layers: dict, names) -> dict:
    total = sum(layers[n] for n in names)
    return {n: round(layers[n] / total, 4) for n in names} if total else {}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    args = parser.parse_args(argv)

    snapshot = {
        "seed": args.seed,
        "seconds": args.seconds,
        "machine": f"{platform.machine()}, {os.cpu_count()} CPUs, "
        f"Python {platform.python_version()}",
        "workloads": {},
    }
    request_layers = [
        n for n, unit in run.PER_LAYER.items() if unit == "ms" and n != "store.load_ms"
    ]
    for workload in streams.WORKLOADS:
        layers = measure(workload, args.seed, args.seconds, 1)
        entry = {
            "end_to_end": measure(workload, args.seed, args.seconds, 0),
            "per_layer": layers,
            "request_time_share": shares(layers, request_layers),
            "planner_split": shares(layers, PLANNER_LAYERS),
        }
        snapshot["workloads"][workload] = entry
        print(workload, json.dumps(entry["request_time_share"]), file=sys.stderr)
    snapshot["roadmap_cold_split"] = ROADMAP_COLD_SPLIT
    with open(os.path.join(HERE, "baseline.json"), "w") as fh:
        json.dump(snapshot, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
