"""Run interleaved sets of benchmark runs of one commit and compare them.

    python3 perfbench/compare.py --runs 10 --sets 2
    python3 perfbench/compare.py --runs 5 --sets 1 --workloads serve-lb

Run from the root of a checkout.  For each workload it makes ``--runs``
runs per set, alternating between the sets run by run, each run with
its own seed.  It prints, per set and end-to-end metric, the median, the
first and third quartiles (``statistics.quantiles(n=4)``) and the spread
(third minus first quartile, as a share of the median).  With two sets
it also says whether they agree: every spread within the metric's bound
in BENCHMARK.json, the two medians apart by no more than the bound (as a
share of the first, in either direction), and the same share of failed
operations.  Exits 1 if they do not agree, and with one set if a spread
is over its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys


def _run(workload: str, seed: int, seconds: int) -> dict:
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(command)} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _summary(values: list[float]) -> tuple[float, float, float, float]:
    first, middle, third = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return middle, first, third, (third - first) / middle


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=2)
    parser.add_argument("--workloads", default=None, help="comma-separated; default all")
    parser.add_argument("--seconds", type=int, default=None,
                        help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    with open(os.path.join(os.getcwd(), "BENCHMARK.json"), encoding="utf-8") as handle:
        definitions = json.load(handle)
    seconds = args.seconds or definitions["run_seconds"]
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in definitions["workloads"]])
    agree = True
    for workload in workloads:
        sets: list[list[dict]] = [[] for _ in range(args.sets)]
        seed = args.first_seed
        for _ in range(args.runs):
            for results in sets:
                results.append(_run(workload, seed, seconds))
                seed += 1
        print(f"== {workload}: {args.runs} runs per set, {seconds} s each")
        failed_shares = [
            sum(r["failed"] for r in results) / sum(r["attempted"] for r in results)
            for results in sets
        ]
        correct = all(r["correct"] for results in sets for r in results)
        print(f"   all outputs correct: {correct}; failed share per set: {failed_shares}")
        agree &= correct and len(set(failed_shares)) == 1
        for metric in definitions["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            rows = [_summary([r["metrics"][name]["value"] for r in results]) for results in sets]
            line = f"   {name:<16}" + "".join(
                f"  set{index + 1}: median {m:.6g} q1 {q1:.6g} q3 {q3:.6g} spread {s:.3f}"
                for index, (m, q1, q3, s) in enumerate(rows)
            )
            for index, results in enumerate(sets):
                values = " ".join(f"{r['metrics'][name]['value']:.4g}" for r in results)
                print(f"      set{index + 1} {name} in run order: {values}")
            verdict = []
            if any(row[3] > bound for row in rows):
                verdict.append("spread over bound")
            if len(rows) == 2:
                first, second = rows[0][0], rows[1][0]
                apart = abs(second - first) / first
                if apart > bound:
                    verdict.append(f"medians apart by {apart:.3f}")
            agree &= not verdict
            print(line + f"  (bound {bound}) {'; '.join(verdict) or 'ok'}")
    if args.sets == 2:
        print("sets agree within the bounds" if agree else "sets DO NOT agree")
    else:
        print("every spread within its bound" if agree else "some spread is OVER its bound")
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
