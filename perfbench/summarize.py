#!/usr/bin/env python3
"""Turns the spans of a traced benchmark run into the per-layer metrics.

A span file is the TSV the benchmark binary writes with --trace-out: one
span per call the benchmark made into a public function of the program
(name, start, end, parent, request id, op round and up to six numeric
attributes). Self time is a span's duration minus the part of it that its
child spans cover. Count metrics are taken over the reference rounds only
(the rounds every run completes), so they repeat exactly for a fixed seed
on the single-client workloads.

Usage: summarize.py SPANS.tsv [--reference-rounds N]
"""
import argparse
import array
import collections
import statistics

MIB = 1024.0 * 1024.0

# Per-layer metrics: name -> unit. BENCHMARK.json lists the same names.
PER_LAYER = {
    "workload.generate_s": "s",
    "core.cm_build_s": "s",
    "core.cm_resident_mb": "MB",
    "core.cm_logical_mb": "MB",
    "core.cm_lookup_us": "us",
    "core.cm_entries_probed_per_lookup": "count",
    "serve.lookup_cache_hit_ratio": "ratio",
    "serve.lookup_cache_entries": "count",
    "exec.plan_us": "us",
    "exec.plan_candidates_per_select": "count",
    "exec.rows_examined_per_select": "count",
    "exec.filter_ns_per_row": "ns",
    "exec.seq_scan_us": "us",
    "serve.tail_rows_swept_per_select": "count",
    "storage.pool_hit_ratio": "ratio",
    "serve.delete_us": "us",
    "serve.update_us": "us",
    "storage.wal_encode_us": "us",
    "storage.wal_bytes_per_row": "bytes",
    "storage.wal_flushes": "count",
    "serve.compact_ms": "ms",
    "serve.compact_build_ms": "ms",
    "serve.compact_swap_ms": "ms",
    "serve.compact_rows_rewritten": "count",
    "serve.recover_records_replayed": "count",
    "serve.recover_s": "s",
    "serve.router_shards_visited_per_select": "count",
    "serve.router_visit_us": "us",
    "serve.router_overhead_us": "us",
}

# Per-layer metrics read from the untraced run (the traced run's shadow
# calls would touch the cache and the pool, and recovery is timed there).
FROM_COUNTERS = (
    "serve.lookup_cache_hit_ratio",
    "serve.lookup_cache_entries",
    "storage.pool_hit_ratio",
    "storage.wal_bytes_per_row",
    "storage.wal_flushes",
    "serve.recover_records_replayed",
    "serve.recover_s",
)

Span = collections.namedtuple(
    "Span", "id parent request round name start end a")


def read_ops(path):
    """Yields (root, children) per operation, streaming: every log lists an
    operation's root span first and its children right after it, and
    set-up, maintenance and recovery spans stand alone."""
    root, children = None, []
    with open(path) as f:
        next(f)
        for line in f:
            p = line.rstrip("\n").split("\t")
            s = Span(int(p[0]), int(p[1]), int(p[2]), int(p[3]), p[4],
                     int(p[5]), int(p[6]), tuple(float(x) for x in p[7:13]))
            if root is not None and s.parent == root.id:
                children.append(s)
                continue
            if root is not None:
                yield root, children
            root, children = s, []
    if root is not None:
        yield root, children


def covered_ns(intervals):
    """Length of the union of [start, end) intervals."""
    total, cur_s, cur_e = 0, None, None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def median(xs):
    return statistics.median(xs) if xs else 0.0


def mean(xs):
    return statistics.fmean(xs) if xs else 0.0


def summarize(path, reference_rounds, counters=None, bases=None):
    """Returns (metrics, bases, self_time_table) for one span file."""
    counters = counters or {}
    bases = dict(bases or {})
    dur = collections.defaultdict(lambda: array.array("d"))   # name -> us
    selfns = collections.defaultdict(int)
    calls = collections.defaultdict(int)
    ref = collections.defaultdict(list)   # name -> attrs of reference-window spans
    attach, gen, compacts = [], [], []
    filter_ns = filter_rows = 0
    overhead, seq_scans = array.array("d"), array.array("d")

    def note(s, own_ns):
        dur[s.name].append((s.end - s.start) / 1e3)
        selfns[s.name] += own_ns
        calls[s.name] += 1
        if 0 <= s.round < reference_rounds:
            ref[s.name].append(s.a)

    for root, kids in read_ops(path):
        note(root, (root.end - root.start) - covered_ns(
            [(k.start, k.end) for k in kids]))
        for k in kids:
            note(k, k.end - k.start)
        if root.name == "workload.GenerateEbayItems":
            gen.append(root)
        elif root.name in ("serve.ServingEngine::AttachCm", "serve.ShardRouter::AttachCm"):
            attach.append(root)
        elif root.name == "op.compact":
            compacts.extend(k for k in kids if k.name == "serve.ServingEngine::Compact")
        names = collections.defaultdict(list)
        for k in kids:
            names[k.name].append(k)
        for s in names["serve.ServingEngine::ExecuteSelect"]:
            if s.a[3] == 0:  # PlanKind::kSeqScan
                seq_scans.append((s.end - s.start) / 1e3)
            # Filter time: the select minus its uncached lookups (when it
            # missed the cache) and minus deliberation, per row examined.
            if s.a[0] <= 0:
                continue
            lookup_ns = sum(k.end - k.start for k in names["core.ShardedCorrelationMap::Lookup"]) \
                if s.a[4] > 0 else 0
            plan_ns = sum(k.end - k.start for k in names["serve.ServingEngine::PlanSelect"])
            filter_ns += max(0, (s.end - s.start) - lookup_ns - plan_ns)
            filter_rows += s.a[0]
        visits = [k.end - k.start for k in names["serve.shard.ServingEngine::ExecuteSelect"]]
        for s in names["serve.ShardRouter::ExecuteSelect"]:
            if visits:
                overhead.append(((s.end - s.start) - max(visits)) / 1e3)

    m = {}
    m["workload.generate_s"] = (gen[-1].end - gen[-1].start) / 1e9 if gen else 0.0
    m["core.cm_build_s"] = sum(s.end - s.start for s in attach) / 1e9
    m["core.cm_resident_mb"] = sum(s.a[1] for s in attach) / MIB
    m["core.cm_logical_mb"] = sum(s.a[2] for s in attach) / MIB

    m["core.cm_lookup_us"] = median(dur["core.ShardedCorrelationMap::Lookup"])
    ref_lookups = ref["core.ShardedCorrelationMap::Lookup"]
    m["core.cm_entries_probed_per_lookup"] = mean([a[0] for a in ref_lookups])
    bases["core.cm_entries_probed_per_lookup"] = (
        "%d uncached lookups in the reference window" % len(ref_lookups))
    m["exec.plan_us"] = median(dur["serve.ServingEngine::PlanSelect"])

    sel_name = ("serve.ServingEngine::ExecuteSelect" if "serve.ServingEngine::ExecuteSelect" in calls
                else "serve.ShardRouter::ExecuteSelect")
    ref_sel = ref[sel_name]
    m["exec.plan_candidates_per_select"] = mean([a[1] for a in ref_sel])
    m["exec.rows_examined_per_select"] = mean([a[0] for a in ref_sel])
    m["serve.tail_rows_swept_per_select"] = mean([a[2] for a in ref_sel])
    for k in ("exec.plan_candidates_per_select", "exec.rows_examined_per_select",
              "serve.tail_rows_swept_per_select"):
        bases[k] = "%d selects in the reference window" % len(ref_sel)
    m["exec.filter_ns_per_row"] = filter_ns / filter_rows if filter_rows else 0.0
    bases["exec.filter_ns_per_row"] = "%d rows examined" % filter_rows
    m["exec.seq_scan_us"] = median(seq_scans)

    m["serve.delete_us"] = median(dur["serve.ServingEngine::ApplyDeletes"])
    m["serve.update_us"] = median(dur["serve.ServingEngine::ApplyUpdate"])
    m["storage.wal_encode_us"] = median(dur["storage.Durability::EncodeAppend"])

    m["serve.compact_ms"] = median([(s.end - s.start) / 1e6 for s in compacts])
    m["serve.compact_build_ms"] = median([s.a[2] * 1e3 for s in compacts])
    m["serve.compact_swap_ms"] = median([s.a[3] * 1e3 for s in compacts])
    ref_compacts = [s for s in compacts if 0 <= s.round < reference_rounds] or compacts
    m["serve.compact_rows_rewritten"] = mean([s.a[0] for s in ref_compacts])
    bases["serve.compact_rows_rewritten"] = "%d compactions" % len(ref_compacts)

    ref_routed = ref["serve.ShardRouter::ExecuteSelect"]
    m["serve.router_shards_visited_per_select"] = mean([a[3] for a in ref_routed])
    bases["serve.router_shards_visited_per_select"] = (
        "%d routed selects in the reference window" % len(ref_routed))
    m["serve.router_visit_us"] = median(dur["serve.shard.ServingEngine::ExecuteSelect"])
    m["serve.router_overhead_us"] = median(overhead)

    for k in FROM_COUNTERS:
        m[k] = float(counters.get(k, 0.0))
    table = {n: (c, selfns[n], median(dur[n]) * 1e3) for n, c in calls.items()}
    return m, bases, table


def format_self_times(table):
    lines = ["%-44s %9s %12s %12s" % ("span", "calls", "self_ms", "p50_us")]
    for name, (calls, self_ns, med_ns) in sorted(
            table.items(), key=lambda kv: -kv[1][1]):
        lines.append("%-44s %9d %12.1f %12.2f" % (name, calls, self_ns / 1e6, med_ns / 1e3))
    return "\n".join(lines)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("spans")
    ap.add_argument("--reference-rounds", type=int, default=10)
    args = ap.parse_args()
    metrics, bases, table = summarize(args.spans, args.reference_rounds)
    print(format_self_times(table))
    for name in PER_LAYER:
        extra = "  (base: %s)" % bases[name] if name in bases else ""
        print("%-42s %14.4f %s%s" % (name, metrics[name], PER_LAYER[name], extra))


if __name__ == "__main__":
    main()
