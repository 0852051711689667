#!/usr/bin/env python3
"""The corrmap benchmark: builds the benchmark binary and runs one workload.

    python3 perfbench/run.py --workload cm_select|crud_churn|routed_scatter \
        --seed N --seconds S --trace 0|1 [--check-all]

Run it from the repository root. It configures and builds perfbench/ (which
compiles ../src itself) in Release under .bench_build/perfbench, leaving the
repository's own build untouched.

--trace 0 runs the workload once with tracing off and reports the end-to-end
metrics. --trace 1 runs it twice: untraced (for its layer counters and as the
overhead baseline), then traced, with one span per call into the program's
public functions; summarize.py turns the spans into the per-layer metrics.

Every line before the last is for people: per-op counts, the check verdict,
bases of ratios, the self-time table and the tracing overhead. The last line
is one JSON object with the keys correct, attempted, failed and metrics.
The exit code is 0 only when every operation and every check passed.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "corrmap_perfbench")
sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
sys.path.insert(0, HERE)
import summarize  # noqa: E402

WORKLOADS = ("cm_select", "crud_churn", "routed_scatter")

# End-to-end metrics: name -> unit. BENCHMARK.json lists the same names.
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "select_p50_us": "us",
    "select_p99_us": "us",
    "append_p50_us": "us",
    "cpu_us_per_op": "us",
    "sim_ms_per_select": "ms",
    "rss_mb": "MB",
}


def log(msg):
    print(msg, flush=True)


def build():
    """Configures and builds the benchmark; exits non-zero on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "serve", "serving_engine.h")):
        sys.exit("perfbench: the corrmap sources (src/) are not in this checkout")
    os.makedirs(BUILD, exist_ok=True)
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "-j", str(min(4, os.cpu_count() or 1))],
    ]
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            sys.exit("perfbench: build step failed: " + " ".join(cmd))


def run_binary(args):
    """Runs the binary; returns its JSON report (exits if it printed none)."""
    proc = subprocess.run([BINARY] + args, stdout=subprocess.PIPE, text=True)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    try:
        report = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.exit("perfbench: the benchmark binary printed no report (exit %d)"
                 % proc.returncode)
    report["exit"] = proc.returncode
    return report


def describe(label, report):
    for name, n in sorted(report["ops"].items()):
        log("%s op %-14s attempted %8d  failed %d" % (label, name, n["attempted"], n["failed"]))
    log("%s check: %s" % (label, "every check passed" if report["correct"] else "FAILED"))
    for e in report["errors"]:
        log("%s error: %s" % (label, e))


def main():
    ap = argparse.ArgumentParser(description="corrmap benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--check-all", action="store_true",
                    help="check every select against the oracle")
    args = ap.parse_args()

    build()
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds)]
    if args.check_all:
        common.append("--check-all")
    base = run_binary(common)
    describe("untraced", base)
    runs = [base]
    if args.trace == 0:
        metrics = {k: {"value": base["metrics"][k], "unit": u} for k, u in END_TO_END.items()}
        for name, m in metrics.items():
            raw = base["metrics"].get(name + "_raw")
            log("metric %-18s %14.4f %-4s%s" % (
                name, m["value"], m["unit"], "" if raw is None else "  (raw %.4f)" % raw))
        if "host_ms" in base["metrics"]:
            log("host-speed kernel: median %.4f ms over the loop's windows; wall-clock"
                " metrics are scaled to its reference time (src/util.h)"
                % base["metrics"]["host_ms"])
    else:
        spans_path = os.path.join(BUILD, "spans-%s-%d.tsv" % (args.workload, args.seed))
        traced = run_binary(common + ["--setups", "1", "--trace-out", spans_path])
        describe("traced", traced)
        runs.append(traced)
        layer, bases, table = summarize.summarize(
            spans_path, traced["reference_rounds"],
            counters=base["layer"], bases=base["bases"])
        os.remove(spans_path)
        log(summarize.format_self_times(table))
        for name, unit in summarize.PER_LAYER.items():
            extra = "  (base: %s)" % bases[name] if name in bases else ""
            log("layer %-40s %14.4f %s%s" % (name, layer[name], unit, extra))
        log("tracing overhead (traced vs untraced run; setup_s times one set-up when traced):")
        for name, unit in END_TO_END.items():
            a, b = base["metrics"][name], traced["metrics"][name]
            log("  %-18s untraced %12.4f  traced %12.4f %-4s  (x%.3f)"
                % (name, a, b, unit, b / a if a else float("nan")))
        metrics = {k: {"value": layer[k], "unit": u} for k, u in summarize.PER_LAYER.items()}

    correct = all(r["correct"] and r["exit"] == 0 for r in runs)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": metrics,
    }), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
