#!/usr/bin/env python3
"""Steadiness of the benchmark: runs each workload several times, each with
another seed, and prints for every end-to-end metric its median, quartiles
and spread (quartile distance as a share of the median, from Python's
statistics.quantiles(values, n=4)) beside the bound BENCHMARK.json sets.
The bounds in BENCHMARK.json are chosen from this output: each spread
(setup_s aside, whose bound is the largest) should stay below a third of
its bound.

    python3 perfbench/steady.py [--runs 10] [--first-seed 1]
                                [--workloads cm_select,crud_churn,...]
                                [--seconds S]

Run it from the repository root. It also checks that the share of failed
operations is identical in every run.
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
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description="benchmark steadiness")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    steady = True
    for workload in args.workloads.split(","):
        values, shares = {}, set()
        for i in range(args.runs):
            seed = args.first_seed + i
            cmd = [sys.executable] + spec["command"][1:] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(args.seconds), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if proc.returncode != 0 or not result["correct"]:
                print("%s seed %d: run failed (exit %d)" % (workload, seed, proc.returncode))
                steady = False
            shares.add(result["failed"] / result["attempted"])
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print("%s seed %d: %s" % (workload, seed, " ".join(
                "%s=%.4g" % (k, m["value"]) for k, m in result["metrics"].items())),
                flush=True)
        print("\n%s: %d runs, failed share %s %s" % (
            workload, args.runs, "identical" if len(shares) == 1 else "DIFFERS",
            sorted(shares)))
        print("  %-18s %12s %12s %12s %8s %7s" % ("metric", "median", "q1", "q3", "spread", "bound"))
        for name, vs in values.items():
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name, float("nan"))
            ok = name == "setup_s" or spread <= bound / 3
            steady &= ok
            print("  %-18s %12.4f %12.4f %12.4f %7.1f%% %6.0f%% %s" % (
                name, med, q1, q3, 100 * spread, 100 * bound, "" if ok else "<- above bound/3"))
        print(flush=True)
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
