#!/usr/bin/env python3
"""Steadiness check: runs one workload repeatedly and prints each metric's
median and quartile spread.

    python3 servebench/steady.py --workload paper_apps --runs 10 \
        [--first-seed 1] [--seconds <s>] [--trace 0|1]

Each run uses the next seed. The spread of a metric is the distance between
the first and third quartiles (statistics.quantiles(values, n=4)) as a share
of the median. For end-to-end metrics it is compared with the metric's bound
in BENCHMARK.json; a spread above a third of the bound is flagged. Run from
the root of a checkout. Exits non-zero if any run fails or is incorrect.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def main():
    bench = load_benchmark()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = {}
    shares = []
    for i in range(args.runs):
        seed = args.first_seed + i
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print("run with seed %d failed (exit %d)" % (seed, proc.returncode))
            return 1
        result = json.loads(lines[-1])
        if not result["correct"]:
            print("run with seed %d reported incorrect output" % seed)
            return 1
        shares.append(result["failed"] / result["attempted"])
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print("seed %d: %s" % (seed, " ".join(
            "%s=%.6g" % (n, m["value"]) for n, m in result["metrics"].items())),
            flush=True)

    print("\n%-40s %14s %14s %14s %8s %6s" %
          ("metric", "median", "q1", "q3", "spread", "bound"))
    unsteady = []
    for name, vals in values.items():
        median = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / abs(median) if median else float("inf")
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s" and spread > bound / 3:
            flag = "  > bound/3"
            unsteady.append(name)
        print("%-40s %14.6g %14.6g %14.6g %8.4f %6s%s" %
              (name, median, q1, q3, spread,
               "" if bound is None else "%.2f" % bound, flag))
    print("failed share per run: %s" % sorted(set(shares)))
    if unsteady:
        print("spread above a third of the bound: %s" % ", ".join(unsteady))
    return 0


if __name__ == "__main__":
    sys.exit(main())
