#!/usr/bin/env python3
"""Regenerate the reference figures in README.md.

    python3 perfbench/reference.py [--first-seed 1] [--no-trace]

For each workload in BENCHMARK.json: 10 untraced runs of `run_seconds` on
seeds first-seed..first-seed+9, then one traced run on the first seed.
Prints, per end-to-end metric, the median over the runs and the spread
(third minus first quartile, from statistics.quantiles(n=4), as a share of
the median), then the per-layer metrics of the traced run. Runs go one at
a time, from the root of the checkout this file sits in.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = 10


def run(workload, seed, seconds, trace):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr.decode()}")
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--no-trace", action="store_true")
    args = parser.parse_args()
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for workload in (w["name"] for w in bench["workloads"]):
        results = [run(workload, seed, seconds, 0) for seed in range(args.first_seed, args.first_seed + RUNS)]
        failed = sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        print(f"\n### {workload}: {RUNS} runs of {seconds} s, seeds {args.first_seed}.."
              f"{args.first_seed + RUNS - 1}; correct={all(r['correct'] for r in results)}, "
              f"failed {failed} of {attempted}\n")
        print("| metric | unit | median | spread | bound | values |")
        print("| --- | --- | --- | --- | --- | --- |")
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in results]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            unit = results[0]["metrics"][metric]["unit"]
            shown = " ".join(f"{v:.4g}" for v in values)
            print(f"| {metric} | {unit} | {median:.4g} | {(q3 - q1) / median:.3f} | {bound} | {shown} |")
        if args.no_trace:
            continue
        traced = run(workload, args.first_seed, seconds, 1)
        print(f"\nTraced run, seed {args.first_seed}: correct={traced['correct']}, "
              f"failed {traced['failed']} of {traced['attempted']}\n")
        print("| per-layer metric | value | unit |")
        print("| --- | --- | --- |")
        for metric, entry in traced["metrics"].items():
            print(f"| {metric} | {entry['value']:.4g} | {entry['unit']} |")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
