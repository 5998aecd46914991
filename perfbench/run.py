"""The repository's benchmark: one command, three workloads.

    python3 perfbench/run.py --workload offline-stream --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout.  It measures the workload for
``--seconds`` seconds, checks the program's outputs, prints readable
lines, and ends with one JSON line: ``correct``, ``attempted``,
``failed`` and ``metrics`` -- every end-to-end metric of BENCHMARK.json
with ``--trace 0``, every per-layer metric with ``--trace 1``.  A metric
of a layer the workload does not reach reads 0.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
WORK = os.path.join(ROOT, ".perfbench-work")


def _load_definitions() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("run.py: no src/repro here; run from the root of a checkout",
              file=sys.stderr)
        return 2
    definitions = _load_definitions()
    names = [w["name"] for w in definitions["workloads"]]
    if args.workload not in names:
        print(f"run.py: unknown workload {args.workload!r}; have {names}",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("run.py: --seconds must be positive", file=sys.stderr)
        return 2

    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    from common import pin_to_one_cpu

    pin_to_one_cpu()
    workdir = os.path.join(WORK, args.workload)
    os.makedirs(workdir, exist_ok=True)
    traced = bool(args.trace)
    if args.workload == "serve-lb":
        from serve import run_serve

        outcome = run_serve(args.seed, args.seconds, traced, workdir)
    else:
        from offline import run_offline_stream

        outcome = run_offline_stream(args.seed, args.seconds, traced, workdir)

    kind = "per_layer" if traced else "end_to_end"
    source = outcome.layers if traced else outcome.end_to_end
    metrics = {}
    for metric in definitions[kind]:
        value = float(source.get(metric["name"], 0.0))
        if not math.isfinite(value):
            outcome.check(False, f"{metric['name']} is not a finite number")
            value = 0.0
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        print(f"{metric['name']:<40} {value:>14.6g} {metric['unit']}")
    for error in outcome.errors:
        print(f"CHECK FAILED: {error}")
    print(json.dumps({
        "correct": not outcome.errors,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
