"""Steadiness of one workload: run it k times and summarise every metric.

usage: python3 bench/steady.py --workload NAME [--runs 10] [--seconds 30]
                               [--first-seed 1]

Run from the root of a source checkout.  Runs bench/run.py --trace 0 k
times, one seed each (first-seed, first-seed+1, ...), every run in a
fresh interpreter with PYTHONHASHSEED=0 and bytecode already compiled.
Prints, per metric, the median, the quartiles (as
statistics.quantiles(values, n=4) gives them), min, max and the quartile
spread as a share of the median; then the failed/attempted counts of
every run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def summarise(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "min": min(values), "max": max(values),
            "spread": (q3 - q1) / statistics.median(values)
            if statistics.median(values) else float("nan")}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args(argv)
    if args.runs < 2:
        ap.error("--runs must be at least 2 for quartiles")

    env = dict(os.environ, PYTHONHASHSEED="0")
    values = {}
    units = {}
    counts = []
    for i in range(args.runs):
        seed = args.first_seed + i
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            print("seed %d: run.py exited with %d" % (seed, proc.returncode))
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        counts.append((seed, result["correct"], result["attempted"],
                       result["failed"]))
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print("seed %d: %s" % (seed, " ".join(
            "%s=%.6g" % (k, m["value"])
            for k, m in result["metrics"].items())), flush=True)

    print("\n%s, %d runs of %g s" % (args.workload, args.runs, args.seconds))
    print("%-36s %6s %11s %11s %11s %11s %11s %7s" % (
        "metric", "unit", "median", "q1", "q3", "min", "max", "spread"))
    for name, vals in values.items():
        s = summarise(vals)
        print("%-36s %6s %11.5g %11.5g %11.5g %11.5g %11.5g %6.1f%%" % (
            name, units[name], s["median"], s["q1"], s["q3"], s["min"],
            s["max"], 100 * s["spread"]))
    print("runs (seed correct attempted failed):",
          " ".join("%d:%s:%d:%d" % c for c in counts))
    return 0


if __name__ == "__main__":
    sys.exit(main())
