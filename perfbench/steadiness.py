#!/usr/bin/env python3
"""Measure the benchmark's run-to-run spread, as the acceptance rule does.

    python3 perfbench/steadiness.py [--runs 10] [--first-seed 1] 2> runs.jsonl

Runs every workload of BENCHMARK.json --runs times with --trace 0 and its
run_seconds, each time with the next seed, in the order workload-major (all
runs of one workload, then the next). For each end-to-end metric it prints
the median, the first and third quartiles (statistics.quantiles(values,
n=4)) and the spread: (Q3 - Q1) / median, next to the metric's bound. Every
raw result line goes to stderr, tagged with workload and seed, for later
comparison.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    if out.returncode != 0:
        sys.exit(f"steadiness: {workload} seed {seed} exited {out.returncode}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    print("| workload | metric | median | Q1 | Q3 | spread | bound |")
    print("|---|---|---|---|---|---|---|")
    for workload in (w["name"] for w in bench["workloads"]):
        results = []
        for i in range(args.runs):
            seed = args.first_seed + i
            result = run_once(workload, seed, bench["run_seconds"])
            if not result["correct"] or result["failed"]:
                sys.exit(f"steadiness: {workload} seed {seed} failed its checks")
            results.append(result)
            print(json.dumps({"workload": workload, "seed": seed, "result": result}),
                  file=sys.stderr, flush=True)
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, median, q3 = statistics.quantiles(values, n=4)
            print(f"| {workload} | {name} | {median:.6g} | {q1:.6g} | {q3:.6g} "
                  f"| {(q3 - q1) / median:.3f} | {bound} |", flush=True)


if __name__ == "__main__":
    main()
