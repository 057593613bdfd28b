#!/usr/bin/env python3
"""End-to-end benchmark of LightNE: embed-and-serve on three workloads.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload oag-small --seed 1 --seconds 20 --trace 0

It builds the library and the benchmark program from source (CMake, into
$CARGO_TARGET_DIR or .bench_build), runs the self-test of the benchmark's
arithmetic, runs one workload in a single process with at most 4 pool
workers, applies the quality floors of perfbench/config.json, and prints as
its last line one JSON object with the keys correct, attempted, failed and
metrics. The line before it is the machine stamp of the run.

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD_TIMEOUT_S = 170
MAX_WORKERS = 4


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def run_quiet(cmd, what, **kwargs):
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True, **kwargs)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail(f"{what} failed (exit {proc.returncode})")
    return proc.stdout


def build(root, build_dir, jobs):
    """Configures once, then builds incrementally; returns the binary dir."""
    out = os.path.join(build_dir, "perfbench")
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", HERE, "-B", out,
                   "-DCMAKE_BUILD_TYPE=Release", f"-DLIGHTNE_ROOT={root}"],
                  "cmake configure")
    run_quiet(["cmake", "--build", out, "-j", str(jobs), "--target",
               "lightne_bench", "bench_math_test"], "cmake build")
    return out


def git_sha(root):
    if not os.path.exists(os.path.join(root, ".git")):
        return "unknown"
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def source_sha256(root):
    """Hash of the library sources, comparable where no git sha exists."""
    h = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def declared_metrics(root, trace):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.exists(os.path.join(root, "src", "core", "lightne.h")):
        fail(f"no LightNE sources under {root}/src; run from a checkout root")
    with open(os.path.join(HERE, "config.json")) as f:
        config = json.load(f)
    if args.workload not in config["floors"]:
        fail(f"unknown workload {args.workload!r}; "
             f"one of {', '.join(config['floors'])}")
    seed = config["default_seed"] if args.seed is None else args.seed

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                               ".bench_build"))
    workers = max(1, min(MAX_WORKERS, os.cpu_count() or 1))
    bin_dir = build(root, build_dir, workers)
    sys.stderr.write(run_quiet([os.path.join(bin_dir, "bench_math_test")],
                               "bench_math_test"))

    work_dir = os.path.join(build_dir, "work")
    os.makedirs(work_dir, exist_ok=True)
    env = dict(os.environ, LIGHTNE_NUM_THREADS=str(workers))
    cmd = [os.path.join(bin_dir, "lightne_bench"), "--workload", args.workload,
           "--seed", str(seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work-dir", work_dir,
           "--git-sha", git_sha(root)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"lightne_bench did not finish within {CHILD_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"lightne_bench exited with {proc.returncode}")
    result = json.loads(lines[-1])

    attempted = result["attempted"]
    failed = result["failed"]
    problems = list(result["failures"])
    # Quality floors: each is one more checked operation.
    for name, floor in config["floors"][args.workload].items():
        attempted += 1
        value = result["quality"].get(name)
        if value is None or value < floor:
            failed += 1
            problems.append(f"{name} {value} below floor {floor}")
    # Every metric BENCHMARK.json declares is printed, and nothing else; a
    # run that cannot measure one has no result line to give.
    declared = declared_metrics(root, args.trace)
    missing = sorted(set(declared) - set(result["metrics"]))
    if missing:
        sys.stderr.write("\n".join(result["notes"] + result["failures"]) + "\n")
        fail(f"no value for {', '.join(missing)}")
    for name, m in result["metrics"].items():
        if declared.get(name) != m["unit"] or m["value"] is None:
            problems.append(f"metric {name} ({m['unit']}) is not declared")
            attempted += 1
            failed += 1

    stamp = dict(result["stamp"], source_sha256=source_sha256(root),
                 notes=result["notes"], quality=result["quality"],
                 problems=problems)
    with open(os.path.join(work_dir, f"{args.workload}-seed{seed}-"
                           f"trace{args.trace}.json"), "w") as f:
        json.dump(dict(stamp=stamp, metrics=result["metrics"]), f, indent=1)
    for p in problems:
        print(f"perfbench: FAILED {p}", file=sys.stderr)
    print(json.dumps({"stamp": stamp}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": result["metrics"]}))


if __name__ == "__main__":
    main()
