#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/spread.py --workload NAME [--runs 10] [--seconds S]
                                [--first-seed 1]

Runs one workload once per seed (first-seed, first-seed+1, ...) through
run.py and prints, per end-to-end metric, the median of the runs, the
inter-quartile range as a share of the median (statistics.quantiles, n=4)
and that share against a third of the metric's bound in BENCHMARK.json.
This is the check the benchmark's bounds are set against.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=None,
                    help="default: run_seconds from BENCHMARK.json")
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = args.seconds or spec["run_seconds"]

    values = {}
    for i in range(args.runs):
        seed = args.first_seed + i
        r = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True)
        if r.returncode != 0:
            sys.stderr.write(r.stderr[-2000:])
            print("seed %d: exit %d" % (seed, r.returncode))
            return 1
        res = json.loads(r.stdout.strip().splitlines()[-1])
        flag = "" if res["correct"] and res["failed"] == 0 else "  (!)"
        print("seed %d: %s%s" % (seed, ", ".join(
            "%s=%.4g" % (k, v["value"]) for k, v in res["metrics"].items()),
            flag), flush=True)
        for k, v in res["metrics"].items():
            values.setdefault(k, []).append(v["value"])

    worst = True
    print("%-24s %12s %8s %8s %s" % ("metric", "median", "iqr%", "bound%",
                                     "ok(<bound/3)"))
    for k, v in values.items():
        med = statistics.median(v)
        q = statistics.quantiles(v, n=4)
        share = (q[2] - q[0]) / med if med else 0.0
        b = bounds.get(k)
        ok = b is None or share < b / 3
        worst = worst and ok
        print("%-24s %12.5g %8.2f %8s %s" % (
            k, med, share * 100, "-" if b is None else "%.1f" % (b * 100),
            "yes" if ok else "NO"))
    return 0 if worst else 2


if __name__ == "__main__":
    sys.exit(main())
