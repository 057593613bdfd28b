#!/usr/bin/env python3
"""Runs the benchmark once per seed and reports each metric's spread.

    python3 perfbench/spread.py --workload oag-small --seeds 1-10 [--trace 0]

For every metric it prints the median over the runs and the distance between
the first and third quartile (statistics.quantiles, n=4) as a share of that
median, next to the metric's bound from BENCHMARK.json. A steady benchmark
keeps every spread but setup_s within a third of its bound. Run from the root
of a checkout; each run's result lines are appended to --log when given.
"""

import argparse
import json
import statistics
import subprocess
import sys


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--log")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    values = {}
    for seed in parse_seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.exit(f"seed {seed}: run failed (exit {proc.returncode})")
        if args.log:
            with open(args.log, "a") as log:
                log.write(proc.stdout)
        result = json.loads(lines[-1])
        print(f"seed {seed}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']}", flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])

    print(f"{'metric':34} {'n':>3} {'median':>14} {'spread':>8} "
          f"{'bound/3':>8}")
    for name, vals in sorted(values.items()):
        median = statistics.median(vals)
        spread = float("nan")
        if len(vals) >= 2 and median != 0:
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / abs(median)
        bound = bounds.get(name)
        third = f"{bound / 3:8.4f}" if bound is not None else f"{'-':>8}"
        flag = " <-- over" if (bound is not None and name != "setup_s"
                               and spread > bound / 3) else ""
        print(f"{name:34} {len(vals):3d} {median:14.6g} {spread:8.4f} "
              f"{third}{flag}")


if __name__ == "__main__":
    main()
