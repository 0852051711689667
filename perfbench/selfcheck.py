#!/usr/bin/env python3
"""Self-check of the benchmark itself, in seconds.

    python3 perfbench/selfcheck.py

Run it from the repository root. It builds the benchmark, then checks:
  * a small-scale smoke of every workload, every select checked against
    the oracle, finishes correct;
  * the oracle rejects a deliberately wrong select count (the binary's
    --inject wrong_count adds one to one engine count);
  * the recovery check rejects a recovered state missing one flushed row
    (--inject drop_row deletes one row from the first recovered engine);
  * run.py exits non-zero, printing no result, in a directory that holds
    only BENCHMARK.json and perfbench/ (no program sources).
Exit code 0 only if every check behaves as expected.
"""
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
sys.path.insert(0, HERE)
import run  # noqa: E402


def binary(*args):
    proc = subprocess.run([run.BINARY, "--small", "--seconds", "1", "--setups", "1"]
                          + list(args), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, (json.loads(lines[-1]) if lines else None)


def main():
    run.build()
    failures = 0

    def expect(ok, what):
        nonlocal failures
        print("%s %s" % ("PASS" if ok else "FAIL", what), flush=True)
        failures += 0 if ok else 1

    for w in run.WORKLOADS:
        code, rep = binary("--workload", w, "--seed", "7", "--check-all")
        expect(code == 0 and rep and rep["correct"] and rep["failed"] == 0,
               "%s smoke: correct, %s ops" % (w, rep and rep["attempted"]))

    cases = [("cm_select", "wrong_count", "oracle"),
             ("routed_scatter", "wrong_count", "oracle"),
             ("crud_churn", "drop_row", "acknowledged rows are missing"),
             ("routed_scatter", "drop_row", "acknowledged rows are missing")]
    for w, inject, needle in cases:
        code, rep = binary("--workload", w, "--seed", "7", "--inject", inject)
        caught = (code != 0 and rep is not None and not rep["correct"]
                  and any(needle in e for e in rep["errors"]))
        expect(caught, "%s --inject %s is rejected (%s)"
               % (w, inject, rep["errors"][0] if rep and rep["errors"] else "no error"))

    with tempfile.TemporaryDirectory(dir=os.path.join(run.ROOT, ".bench_build")) as d:
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), d)
        shutil.copytree(HERE, os.path.join(d, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(["python3", "perfbench/run.py", "--workload", "cm_select",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=d, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=170)
        expect(proc.returncode != 0 and not proc.stdout.strip(),
               "run.py without the program sources exits %d and prints no result"
               % proc.returncode)

    print("selfcheck: %s" % ("all checks passed" if failures == 0 else "%d FAILED" % failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
