// The two single-engine workloads, cm_select and crud_churn. Both drive one
// ServingEngine from one closed-loop client on the calling thread, with a
// ServingMetrics bundle and a group-commit Durability attached, background
// recluster triggers off, and every input generated with the loop clock
// paused. The client samples the host speed after every op round (clock
// paused; util.h). Both end with crash/recover cycles: FlushNow, Crash and
// a timed Recover.
#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "index/clustered_index.h"
#include "obs/serving_metrics.h"
#include "serve/durability.h"
#include "serve/serving_engine.h"
#include "util.h"
#include "workloads.h"

namespace perfbench {
namespace {

using corrmap::ClusteredIndex;
using corrmap::CmColumnPredicate;
using corrmap::Key;
using corrmap::kEbay;
using corrmap::Query;
using corrmap::RowId;
using corrmap::Status;
using corrmap::Table;
using corrmap::serve::Durability;
using corrmap::serve::SelectResult;
using corrmap::serve::ServingEngine;
using corrmap::serve::ServingOptions;

constexpr size_t kLabelCols[4] = {kEbay.cat3, kEbay.cat4, kEbay.cat5,
                                  kEbay.cat6};
constexpr size_t kRoundOps = 100;
constexpr size_t kBatchRows = 16;
constexpr size_t kCheckPassSelects = 128;
constexpr int kRecoverCycles = 7;
constexpr RowId kNoRow = ~RowId{0};

/// One engine with everything it borrows. Members are destroyed in reverse
/// order, so the engine goes before the durability manager and metrics it
/// points at.
struct EngineSetup {
  std::unique_ptr<Table> table;
  std::unique_ptr<ClusteredIndex> cidx;
  std::unique_ptr<corrmap::obs::ServingMetrics> metrics;
  std::unique_ptr<Durability> durability;
  std::unique_ptr<ServingEngine> engine;
  std::vector<size_t> cm_cols;  ///< attach order
  ServingOptions options;
};

/// Generate + ClusterBy + clustered index + engine + CM attach: what
/// setup_s times. Each step is also a set-up span.
std::unique_ptr<EngineSetup> BuildEngine(size_t categories,
                                         const std::vector<size_t>& cm_cols,
                                         SpanLog* log, double* seconds) {
  auto s = std::make_unique<EngineSetup>();
  s->cm_cols = cm_cols;
  const int64_t t0 = NowNs();
  s->table = corrmap::GenerateEbayItems(TableConfig(categories));
  int64_t t1 = NowNs();
  log->Add("workload.GenerateEbayItems", -1, 0, -1, t0, t1,
           {double(s->table->NumRows())});
  int64_t ta = t1;
  if (Status st = s->table->ClusterBy(kEbay.catid); !st.ok()) Die("ClusterBy", st);
  t1 = NowNs();
  log->Add("storage.Table::ClusterBy", -1, 0, -1, ta, t1);
  ta = t1;
  auto cidx = ClusteredIndex::Build(*s->table, kEbay.catid);
  if (!cidx.ok()) Die("ClusteredIndex::Build", cidx.status());
  s->cidx = std::make_unique<ClusteredIndex>(std::move(*cidx));
  t1 = NowNs();
  log->Add("index.ClusteredIndex::Build", -1, 0, -1, ta, t1);
  ta = t1;
  s->metrics = std::make_unique<corrmap::obs::ServingMetrics>();
  corrmap::serve::DurabilityOptions dopts;
  dopts.metrics = s->metrics.get();
  s->durability = std::make_unique<Durability>(dopts);
  s->options.num_workers = 1;
  s->options.metrics = s->metrics.get();
  s->options.durability = s->durability.get();
  s->engine = std::make_unique<ServingEngine>(s->table.get(), s->cidx.get(),
                                              s->options);
  t1 = NowNs();
  log->Add("serve.ServingEngine::ServingEngine", -1, 0, -1, ta, t1);
  for (size_t i = 0; i < cm_cols.size(); ++i) {
    const uint64_t heap0 = HeapBytesInUse();
    ta = NowNs();
    if (Status st = s->engine->AttachCm(IdentityCm(cm_cols[i])); !st.ok()) {
      Die("AttachCm", st);
    }
    t1 = NowNs();
    const double resident = double(HeapBytesInUse()) - double(heap0);
    log->Add("serve.ServingEngine::AttachCm", -1, 0, -1, ta, t1,
             {double(cm_cols[i]), resident,
              double(s->engine->cm(i).SizeBytes()),
              double(s->engine->cm(i).NumUKeys())});
  }
  *seconds = double(NowNs() - t0) * 1e-9;
  return s;
}

std::unique_ptr<EngineSetup> SetUp(const Config& config, size_t categories,
                                   const std::vector<size_t>& cm_cols,
                                   SpanLog* log, Report* report) {
  return TimedSetUps(config, log, report, [&](SpanLog* l, double* seconds) {
    return BuildEngine(categories, cm_cols, l, seconds);
  });
}

/// Per-op context: where spans, latencies and verdicts go.
struct Loop {
  const Config* config = nullptr;
  EngineSetup* setup = nullptr;
  Oracle* oracle = nullptr;
  Report* report = nullptr;
  SpanLog* log = nullptr;
  LoopTimer timer;
  uint64_t op = 0;      ///< ops issued so far (request ids, check sampling)
  int64_t round = -1;   ///< -1 outside the timed loop
  bool in_prefix = false;
  bool injected = false;
  std::vector<double> select_us;
  std::vector<double> append_us;
  double prefix_sim_ms = 0;
  uint64_t prefix_selects = 0;
  /// ItemID -> current row id (client bookkeeping for deletes/updates).
  std::vector<RowId> rid_of;
  WindowSeries windows;

  ServingEngine& engine() { return *setup->engine; }
  /// Samples the host speed, then starts the loop clock and the first
  /// window.
  void Begin() {
    host_sum_ = SampleHostMs();
    host_n_ = 1;
    timer.Start();
    StartWindow();
  }
  /// Samples the host speed (util.h) with the clock stopped: after every
  /// op round that does not end a window, and in CloseWindow.
  void SampleHost() {
    timer.Paused([&] { last_host_ms_ = SampleHostMs(); });
    host_sum_ += last_host_ms_;
    ++host_n_;
  }
  void StartWindow() {
    win_wall0_ = timer.WallSeconds();
    win_cpu0_ = timer.CpuSeconds();
    win_op0_ = op;
    win_select0_ = select_us.size();
    win_append0_ = append_us.size();
  }
  void CloseWindow() {
    const double wall = timer.WallSeconds() - win_wall0_;
    const double cpu = timer.CpuSeconds() - win_cpu0_;
    SampleHost();
    windows.Add(op - win_op0_, wall, cpu,
                {select_us.begin() + long(win_select0_), select_us.end()},
                {append_us.begin() + long(win_append0_), append_us.end()},
                host_sum_ / double(host_n_));
    host_sum_ = last_host_ms_;
    host_n_ = 1;
    StartWindow();
  }

 private:
  /// Host-speed samples of the current window, its start included.
  double host_sum_ = 0, last_host_ms_ = 0;
  int host_n_ = 0;
  double win_wall0_ = 0, win_cpu0_ = 0;
  uint64_t win_op0_ = 0;
  size_t win_select0_ = 0, win_append0_ = 0;
};

void Remember(Loop* L, int64_t item, RowId rid) {
  if (size_t(item) >= L->rid_of.size()) {
    L->rid_of.resize(size_t(item) * 2 + 1024, kNoRow);
  }
  L->rid_of[size_t(item)] = rid;
}

void RebuildRowIds(Loop* L) {
  std::fill(L->rid_of.begin(), L->rid_of.end(), kNoRow);
  const Table& t = L->engine().table();
  for (RowId r = 0; r < t.NumRows(); ++r) {
    if (!t.IsDeleted(r)) Remember(L, t.GetKey(r, kEbay.item_id).AsInt64(), r);
  }
}

bool Select(Loop* L, const QuerySpec& spec, const Query& q) {
  ServingEngine& eng = L->engine();
  const bool traced = L->log->enabled();
  const uint64_t req = ++L->op;
  const auto c0 = traced ? eng.cache().stats()
                         : corrmap::serve::SharedLookupCache::Stats{};
  const int64_t t0 = NowNs();
  const SelectResult r = eng.ExecuteSelect(q);
  const int64_t t1 = NowNs();
  if (L->round >= 0) L->select_us.push_back(double(t1 - t0) * 1e-3);
  if (L->in_prefix) {
    L->prefix_sim_ms += r.simulated_ms;
    ++L->prefix_selects;
  }
  if (traced) {
    const auto c1 = eng.cache().stats();
    const int64_t root = L->log->Open("op.select", req, L->round, t0);
    L->log->Add("serve.ServingEngine::ExecuteSelect", root, req, L->round, t0,
                t1,
                {double(r.rows_examined), double(r.plan_candidates),
                 double(r.tail_rows_swept), double(int(r.plan_kind)),
                 double(c1.misses - c0.misses), double(r.num_matches)});
    // Shadow calls on the same inputs, after the call they split up.
    const corrmap::Predicate& p = q.predicates().front();
    for (size_t i = 0; i < L->setup->cm_cols.size(); ++i) {
      if (L->setup->cm_cols[i] != p.column()) continue;
      const CmColumnPredicate cp =
          p.op() == corrmap::Predicate::Op::kRange
              ? CmColumnPredicate::Range(p.lo(), p.hi())
              : CmColumnPredicate::Points(p.keys());
      const int64_t ta = NowNs();
      const corrmap::CmLookupResult res = eng.cm(i).Lookup({&cp, 1});
      L->log->Add("core.ShardedCorrelationMap::Lookup", root, req, L->round,
                  ta, NowNs(),
                  {double(res.entries_probed), double(res.num_ordinals)});
    }
    const int64_t ta = NowNs();
    const corrmap::PlanSet plans = eng.PlanSelect(q);
    L->log->Add("serve.ServingEngine::PlanSelect", root, req, L->round, ta,
                NowNs(), {double(plans.candidates.size())});
    L->log->Close(root, NowNs(), {double(int(spec.kind))});
  }
  uint64_t got = r.num_matches;
  bool ok = true;
  if (SampledForCheck(*L->config, req)) {
    if (L->config->inject == "wrong_count" && !L->injected) {
      L->injected = true;
      ++got;
    }
    L->timer.Paused([&] {
      const uint64_t want = L->oracle->Count(spec);
      if (want != got) {
        ok = false;
        L->report->Error("select " + q.ToString(eng.table()) +
                         ": engine counted " + std::to_string(got) +
                         ", oracle " + std::to_string(want));
      }
    });
  }
  L->report->Count(L->round >= 0 ? "select" : "check_select", ok);
  return ok;
}

/// A pre-generated 16-row append: physical keys plus decoded shadow rows.
struct Batch {
  std::vector<std::vector<Key>> keys;
  std::vector<ShadowRow> rows;
};

Batch MakeBatch(const Catalog& catalog, int64_t* next_item, Rng* rng) {
  Batch b;
  for (size_t i = 0; i < kBatchRows; ++i) {
    const int64_t cat =
        UniformInt(rng, 0, int64_t(catalog.categories.size()) - 1);
    NewRow row = MakeRow(catalog, cat, (*next_item)++,
                         catalog.categories[size_t(cat)].mean_price +
                             Uniform(rng, -200, 200));
    b.keys.push_back(std::move(row.keys));
    b.rows.push_back(std::move(row.shadow));
  }
  return b;
}

void EncodeShadow(Loop* L, int64_t root, uint64_t req, RowId first,
                  std::span<const std::vector<Key>> rows) {
  const int64_t ta = NowNs();
  const std::string payload = Durability::EncodeAppend(first, rows);
  L->log->Add("storage.Durability::EncodeAppend", root, req, L->round, ta,
              NowNs(), {double(payload.size()), double(rows.size())});
}

bool Append(Loop* L, const Batch& b) {
  ServingEngine& eng = L->engine();
  const uint64_t req = ++L->op;
  const RowId first = eng.table().NumRows();
  const int64_t t0 = NowNs();
  const Status st = eng.ApplyAppend(b.keys);
  const int64_t t1 = NowNs();
  L->append_us.push_back(double(t1 - t0) * 1e-3);
  if (L->log->enabled()) {
    const int64_t root = L->log->Open("op.append", req, L->round, t0);
    L->log->Add("serve.ServingEngine::ApplyAppend", root, req, L->round, t0,
                t1, {double(b.keys.size())});
    EncodeShadow(L, root, req, first, b.keys);
    L->log->Close(root, NowNs());
  }
  if (st.ok()) {
    for (size_t i = 0; i < b.rows.size(); ++i) {
      L->oracle->Add(b.rows[i]);
      if (!L->rid_of.empty()) Remember(L, b.rows[i].item, first + i);
    }
  } else {
    L->report->Error("append refused: " + st.ToString());
  }
  L->report->Count("append", st.ok());
  return st.ok();
}

/// One write of crud_churn, resolved against the generator's live set: a
/// batched delete of kBatchRows live rows, or a price update of one row.
struct Write {
  enum class Kind : uint8_t { kDelete, kUpdate } kind = Kind::kDelete;
  std::vector<int64_t> items;   ///< ItemIDs of the rows written
  std::vector<Key> new_values;  ///< kUpdate
  double new_price = 0;
};

bool ApplyWrite(Loop* L, const Write& w) {
  ServingEngine& eng = L->engine();
  const uint64_t req = ++L->op;
  const bool del = w.kind == Write::Kind::kDelete;
  const char* op = del ? "delete" : "update";
  std::vector<RowId> rids;
  for (int64_t item : w.items) {
    const RowId rid =
        size_t(item) < L->rid_of.size() ? L->rid_of[size_t(item)] : kNoRow;
    if (rid == kNoRow) {
      L->report->Error(std::string(op) + " of ItemID " + std::to_string(item) +
                       ": the client lost track of its row");
      L->report->Count(op, false);
      return false;
    }
    rids.push_back(rid);
  }
  const RowId tail = eng.table().NumRows();
  const int64_t t0 = NowNs();
  const Status st = del ? eng.ApplyDeletes(rids)
                        : eng.ApplyUpdate(rids.front(), w.new_values);
  const int64_t t1 = NowNs();
  if (L->log->enabled()) {
    const int64_t root =
        L->log->Open(del ? "op.delete" : "op.update", req, L->round, t0);
    L->log->Add(del ? "serve.ServingEngine::ApplyDeletes"
                    : "serve.ServingEngine::ApplyUpdate",
                root, req, L->round, t0, t1, {double(rids.size())});
    L->log->Close(root, NowNs());
  }
  if (st.ok()) {
    for (int64_t item : w.items) {
      if (del) {
        L->oracle->Remove(item);
        L->rid_of[size_t(item)] = kNoRow;
      } else {
        L->oracle->SetPrice(item, w.new_price);
        L->rid_of[size_t(item)] = tail;
      }
    }
  } else {
    L->report->Error(std::string(op) + " of ItemID " +
                     std::to_string(w.items.front()) + " failed: " + st.ToString());
  }
  L->report->Count(op, st.ok());
  return st.ok();
}

bool Compact(Loop* L) {
  const uint64_t req = ++L->op;
  const int64_t t0 = NowNs();
  const auto res = L->engine().Compact();
  const int64_t t1 = NowNs();
  if (L->log->enabled() && res.ok()) {
    const int64_t root = L->log->Open("op.compact", req, L->round, t0);
    L->log->Add("serve.ServingEngine::Compact", root, req, L->round, t0, t1,
                {double(res->rows_clustered), double(res->rows_compacted),
                 res->build_seconds, res->swap_seconds,
                 double(res->tail_rows_merged)});
    L->log->Close(root, NowNs());
  }
  if (!res.ok()) L->report->Error("Compact: " + res.status().ToString());
  L->report->Count("compact", res.ok());
  // Compaction permutes row ids; re-learn them (client bookkeeping).
  if (res.ok() && !L->rid_of.empty()) L->timer.Paused([&] { RebuildRowIds(L); });
  return res.ok();
}

/// Check pass at quiescence: a seeded sample of selects against the
/// oracle, then the engine's own invariants.
void CheckPass(Loop* L, const Catalog& catalog, bool price_ranges) {
  Rng rng(L->config->seed * 0x2545F4914F6CDD1DULL + 7);
  const Config* saved = L->config;
  Config all = *saved;
  all.check_all = true;
  L->config = &all;
  for (size_t i = 0; i < kCheckPassSelects; ++i) {
    QuerySpec spec;
    if (price_ranges && i % 5 == 4) {
      spec.kind = QuerySpec::Kind::kPriceRange;
      spec.lo = Uniform(&rng, 0, catalog.max_price);
      spec.hi = spec.lo + Uniform(&rng, 50, 1500);
    } else {
      spec = LabelSelect(catalog, kLabelCols[i % 4], &rng);
    }
    Select(L, spec, BindQuery(L->engine().table(), spec));
  }
  L->config = saved;
  if (Status st = L->engine().CheckInvariants(); !st.ok()) {
    L->report->Error("CheckInvariants: " + st.ToString());
  }
}

/// kRecoverCycles crash/recover cycles spread over a few seconds: `writes`
/// (a group of acknowledged writes on the current engine), FlushNow, Crash,
/// then a timed Recover whose engine replaces the crashed one and is
/// checked row by row against the oracle: every acknowledged row, nothing
/// else. serve.recover_s is the fastest cycle: host contention only ever
/// adds time.
void CrashRecoverCycles(Loop* L, const std::function<void(int)>& writes) {
  EngineSetup& s = *L->setup;
  ServingEngine::RecoverSpec spec;
  for (size_t col : s.cm_cols) spec.cms.push_back({IdentityCm(col), 0});
  std::vector<double> seconds;
  for (int cycle = 0; cycle < kRecoverCycles; ++cycle) {
    writes(cycle);
    s.durability->FlushNow();
    s.durability->Crash(0);
    s.engine.reset();
    corrmap::serve::RecoveryStats stats;
    const int64_t t0 = NowNs();
    auto rec = ServingEngine::Recover(kEbay.catid, s.options, spec, &stats);
    const int64_t t1 = NowNs();
    if (!rec.ok()) {
      L->report->Error("Recover: " + rec.status().ToString());
      L->report->Count("recover", false);
      return;
    }
    s.engine = std::move(*rec);
    seconds.push_back(double(t1 - t0) * 1e-9);
    L->log->Add("serve.ServingEngine::Recover", -1, ++L->op, -1, t0, t1,
                {double(stats.records_scanned), double(stats.checkpoint_rows)});
    L->report->layer["serve.recover_records_replayed"] =
        double(stats.records_scanned);
    ServingEngine& eng = *s.engine;
    if (L->config->inject == "drop_row" && cycle == 0) {
      for (RowId r = 0; r < eng.table().NumRows(); ++r) {
        if (!eng.table().IsDeleted(r)) {
          (void)eng.ApplyDelete(r);
          break;
        }
      }
    }
    std::string diff = L->oracle->Diff({&eng.table()});
    if (diff.empty()) {
      if (Status st = eng.CheckInvariants(); !st.ok()) diff = st.ToString();
    }
    if (!diff.empty()) L->report->Error("recovered state: " + diff);
    L->report->Count("recover", diff.empty());
  }
  L->report->layer["serve.recover_s"] = Quantile(seconds, 0);
}

/// End-to-end figures of the timed loop plus the layer counters read from
/// the program (cache, buffer pool).
struct Counters {
  corrmap::serve::SharedLookupCache::Stats cache;
  corrmap::BufferPoolStats pool;
  uint64_t wal_flushes = 0;
  uint64_t wal_bytes = 0;

  static Counters Read(ServingEngine& eng, const Durability& d) {
    Counters c;
    c.cache = eng.cache().stats();
    if (eng.pool() != nullptr) c.pool = eng.pool()->stats();
    c.wal_flushes = d.wal_flushes();
    c.wal_bytes = d.wal_bytes_durable();
    return c;
  }
};

void ReportLoop(Loop* L, const Counters& before, const Counters& after) {
  Report& rep = *L->report;
  L->windows.Report(&rep.metrics);
  rep.metrics["sim_ms_per_select"] =
      L->prefix_selects ? L->prefix_sim_ms / double(L->prefix_selects) : 0;
  rep.metrics["rss_mb"] = ResidentMb();
  const uint64_t gets = (after.cache.hits - before.cache.hits) +
                        (after.cache.misses - before.cache.misses);
  rep.layer["serve.lookup_cache_hit_ratio"] =
      gets ? double(after.cache.hits - before.cache.hits) / double(gets) : 0;
  rep.bases["serve.lookup_cache_hit_ratio"] =
      std::to_string(gets) + " cache gets in the timed loop";
  rep.layer["serve.lookup_cache_entries"] = double(L->engine().cache().Size());
  const uint64_t touches = (after.pool.hits - before.pool.hits) +
                           (after.pool.misses - before.pool.misses);
  rep.layer["storage.pool_hit_ratio"] =
      touches ? double(after.pool.hits - before.pool.hits) / double(touches) : 0;
  rep.bases["storage.pool_hit_ratio"] =
      std::to_string(touches) + " page touches in the timed loop";
}

/// Table size and window length; the first window is the reference every
/// run completes (count metrics and sim_ms_per_select are taken over it).
struct Scale {
  size_t categories;
  size_t window_rounds;
};

Scale ScaleFor(const Config& config, size_t full_categories,
               size_t full_window) {
  return config.small ? Scale{full_categories / 10, 2}
                      : Scale{full_categories, full_window};
}

}  // namespace

// ---------------------------------------------------------------------------
// cm_select: read-only; CAT3..CAT6 points (60%), fresh Price ranges (30%),
// ItemID ranges no CM covers (10%). Identity CMs on CAT3..CAT6 and Price.
// ---------------------------------------------------------------------------
Report RunCmSelect(const Config& config) {
  Report report;
  SpanLog log(config.tracing(), 0);
  const Scale scale = ScaleFor(config, 1200, 10);
  report.reference_rounds = scale.window_rounds;
  auto setup = SetUp(config, scale.categories,
                     {kEbay.cat3, kEbay.cat4, kEbay.cat5, kEbay.cat6,
                      kEbay.price},
                     &log, &report);
  Oracle oracle;
  oracle.Load(*setup->table);
  const Catalog catalog = Catalog::FromTable(*setup->table);
  Rng rng(config.seed);

  struct Op {
    QuerySpec spec;
    Query query;
  };
  const auto make_round = [&] {
    std::vector<Op> ops;
    for (size_t i = 0; i < kRoundOps; ++i) {
      QuerySpec spec;
      if (i < 60) {
        spec = LabelSelect(catalog, kLabelCols[i % 4], &rng);
      } else if (i < 90) {
        spec.kind = QuerySpec::Kind::kPriceRange;
        spec.lo = Uniform(&rng, 0, catalog.max_price);
        spec.hi = spec.lo + Uniform(&rng, 50, 1500);
      } else {
        spec.kind = QuerySpec::Kind::kItemRange;
        spec.lo = double(UniformInt(&rng, 1, catalog.max_item));
        spec.hi = spec.lo + double(UniformInt(&rng, 100, 5000));
      }
      ops.push_back({spec, BindQuery(*setup->table, spec)});
    }
    std::shuffle(ops.begin(), ops.end(), rng);
    return ops;
  };

  Loop L;
  L.config = &config;
  L.setup = setup.get();
  L.oracle = &oracle;
  L.report = &report;
  L.log = &log;
  // Each window's rounds are generated when it starts, clock paused.
  std::vector<std::vector<Op>> window;
  const Counters before = Counters::Read(*setup->engine, *setup->durability);
  L.Begin();
  for (size_t round = 0;; ++round) {
    if (round % scale.window_rounds == 0) {
      L.timer.Paused([&] {
        window.clear();
        for (size_t i = 0; i < scale.window_rounds; ++i) window.push_back(make_round());
      });
    }
    L.round = int64_t(round);
    L.in_prefix = round < scale.window_rounds;
    for (const Op& op : window[round % scale.window_rounds]) {
      Select(&L, op.spec, op.query);
    }
    if ((round + 1) % scale.window_rounds != 0) L.SampleHost();
    if ((round + 1) % scale.window_rounds == 0) {
      L.CloseWindow();
      if (L.timer.WallSeconds() >= config.seconds) break;
    }
  }
  L.timer.Pause();
  L.round = -1;
  L.in_prefix = false;
  const Counters after = Counters::Read(*setup->engine, *setup->durability);
  ReportLoop(&L, before, after);

  CheckPass(&L, catalog, /*price_ranges=*/true);
  // The read-only loop has no writes; append_p50_us and serve.recover_s come from
  // the crash/recover cycles, each of which first appends 128 batches of 16
  // rows (append_p50_us: the median of the cycles' medians, each scaled by
  // the host speed sampled before every 8th append and after the last).
  int64_t next_item = catalog.max_item + 1;
  Rng erng(config.seed ^ 0xa99e4dULL);
  std::vector<double> append_p50, append_p50_raw;
  CrashRecoverCycles(&L, [&](int) {
    L.append_us.clear();
    double host_sum = 0;
    int host_n = 0;
    const auto sample = [&] {
      host_sum += SampleHostMs();
      ++host_n;
    };
    for (size_t i = 0; i < (config.small ? 8 : 128); ++i) {
      if (i % 8 == 0) sample();
      Append(&L, MakeBatch(catalog, &next_item, &erng));
    }
    sample();
    append_p50_raw.push_back(Median(L.append_us));
    append_p50.push_back(append_p50_raw.back() * ToReference(host_sum / host_n));
  });
  report.metrics["append_p50_us"] = Median(append_p50);
  report.metrics["append_p50_us_raw"] = Median(append_p50_raw);
  if (config.tracing() && !WriteSpans(config.trace_out, {&log})) {
    report.Error("cannot write spans to " + config.trace_out);
  }
  return report;
}

// ---------------------------------------------------------------------------
// crud_churn: per round of 100 ops, 8 appends of 16 rows, 8 batched deletes
// of 16 live rows, 6 price updates of live rows and 78 CAT3..CAT6 point
// selects. Compact runs synchronously whenever the tail reaches
// compact_tail rows.
// ---------------------------------------------------------------------------
Report RunCrudChurn(const Config& config) {
  constexpr size_t kAppends = 8, kDeletes = 8, kUpdates = 6;
  Report report;
  SpanLog log(config.tracing(), 0);
  const Scale scale = ScaleFor(config, 1200, 60);
  report.reference_rounds = scale.window_rounds;
  // Appends and updates grow the tail by 134 rows a round, so it reaches
  // compact_tail (8,040 rows at full scale) exactly at each window's end.
  const size_t compact_tail =
      scale.window_rounds * (kAppends * kBatchRows + kUpdates);
  auto setup = SetUp(config, scale.categories,
                     {kEbay.cat3, kEbay.cat4, kEbay.cat5, kEbay.cat6}, &log,
                     &report);
  Oracle oracle;
  oracle.Load(*setup->table);
  const Catalog catalog = Catalog::FromTable(*setup->table);
  Rng rng(config.seed);

  // The generator's own view of the live rows, so deletes and updates are
  // resolved to live ItemIDs when generated, before timing.
  struct Live {
    int64_t item;
    int64_t catid;
  };
  std::vector<Live> live;
  for (RowId r = 0; r < setup->table->NumRows(); ++r) {
    live.push_back({setup->table->GetKey(r, kEbay.item_id).AsInt64(),
                    setup->table->GetKey(r, kEbay.catid).AsInt64()});
  }
  int64_t next_item = catalog.max_item + 1;
  // The 78 selects of a round: 24 on CAT6, 30 on CAT5, 16 on CAT4, 8 on
  // CAT3 -- finer levels are asked more often, and the median select falls
  // well inside the CAT5 population instead of between two populations.
  std::vector<size_t> select_cols;
  for (const auto& [col, n] : {std::pair{kEbay.cat6, 24}, std::pair{kEbay.cat5, 30},
                               std::pair{kEbay.cat4, 16}, std::pair{kEbay.cat3, 8}}) {
    select_cols.insert(select_cols.end(), size_t(n), col);
  }
  size_t next_select = 0;

  struct Op {
    enum class Kind : uint8_t { kSelect, kAppend, kWrite } kind;
    QuerySpec spec;
    Query query;
    Batch batch;
    Write write;
  };
  const auto make_op = [&](Op::Kind kind, Write::Kind wkind) {
    // Selects take their columns from select_cols in order.
    Op op{kind, {}, {}, {}, {}};
    if (kind == Op::Kind::kSelect) {
      op.spec = LabelSelect(catalog, select_cols[next_select++], &rng);
      op.query = BindQuery(*setup->table, op.spec);
    } else if (kind == Op::Kind::kAppend) {
      op.batch = MakeBatch(catalog, &next_item, &rng);
      for (const ShadowRow& r : op.batch.rows) live.push_back({r.item, r.catid});
    } else {
      op.write.kind = wkind;
      const auto pick = [&] {
        return size_t(UniformInt(&rng, 0, int64_t(live.size()) - 1));
      };
      if (wkind == Write::Kind::kDelete) {
        // Deletes remove as many rows as appends add, so the live table
        // (and its working set against the buffer pool) stays level.
        for (size_t i = 0; i < kBatchRows; ++i) {
          const size_t at = pick();
          op.write.items.push_back(live[at].item);
          live[at] = live.back();
          live.pop_back();
        }
      } else {
        const size_t at = pick();
        op.write.items.push_back(live[at].item);
        const double price =
            catalog.categories[size_t(live[at].catid)].mean_price +
            Uniform(&rng, -200, 200);
        NewRow row = MakeRow(catalog, live[at].catid, live[at].item, price);
        op.write.new_values = std::move(row.keys);
        op.write.new_price = row.shadow.price;
      }
    }
    return op;
  };
  const auto make_round = [&](bool writes_only) {
    std::vector<Op::Kind> kinds;
    std::vector<Write::Kind> wkinds;
    for (size_t i = 0; i < kAppends; ++i) kinds.push_back(Op::Kind::kAppend);
    for (size_t i = 0; i < kDeletes + kUpdates; ++i) {
      kinds.push_back(Op::Kind::kWrite);
    }
    if (!writes_only) {
      while (kinds.size() < kRoundOps) kinds.push_back(Op::Kind::kSelect);
    }
    std::shuffle(kinds.begin(), kinds.end(), rng);
    std::shuffle(select_cols.begin(), select_cols.end(), rng);
    next_select = 0;
    size_t deletes = 0;
    std::vector<Op> ops;
    for (Op::Kind k : kinds) {
      Write::Kind wk = Write::Kind::kUpdate;
      if (k == Op::Kind::kWrite && deletes < kDeletes) {
        wk = Write::Kind::kDelete;
        ++deletes;
      }
      ops.push_back(make_op(k, wk));
    }
    return ops;
  };

  Loop L;
  L.config = &config;
  L.setup = setup.get();
  L.oracle = &oracle;
  L.report = &report;
  L.log = &log;
  RebuildRowIds(&L);
  const auto run = [&](const Op& op) {
    switch (op.kind) {
      case Op::Kind::kSelect:
        Select(&L, op.spec, op.query);
        return;
      case Op::Kind::kAppend:
        Append(&L, op.batch);
        break;
      case Op::Kind::kWrite:
        ApplyWrite(&L, op.write);
        break;
    }
  };

  // Rounds are generated one at a time (clock paused): the generator's live
  // set then never runs ahead of the rows the engine has acknowledged.
  std::vector<Op> ops;
  Counters before = Counters::Read(*setup->engine, *setup->durability);
  Counters at_prefix = before;
  uint64_t prefix_rows_logged = 0;
  L.Begin();
  for (size_t round = 0;; ++round) {
    L.timer.Paused([&] { ops = make_round(false); });
    L.round = int64_t(round);
    L.in_prefix = round < scale.window_rounds;
    for (const Op& op : ops) run(op);
    if ((round + 1) % scale.window_rounds != 0) L.SampleHost();
    if (L.in_prefix) {
      prefix_rows_logged += (kAppends + kDeletes) * kBatchRows + kUpdates;
    }
    if ((round + 1) % scale.window_rounds == 0) {
      if (L.engine().TailRows() >= compact_tail) Compact(&L);
      if (round + 1 == scale.window_rounds) {
        L.timer.Paused([&] {
          at_prefix = Counters::Read(*setup->engine, *setup->durability);
        });
      }
      L.CloseWindow();
      if (L.timer.WallSeconds() >= config.seconds) break;
    }
  }
  L.timer.Pause();
  L.round = -1;
  L.in_prefix = false;
  const Counters after = Counters::Read(*setup->engine, *setup->durability);
  ReportLoop(&L, before, after);
  report.layer["storage.wal_flushes"] =
      double(at_prefix.wal_flushes - before.wal_flushes);
  report.bases["storage.wal_flushes"] =
      "the reference window (" + std::to_string(scale.window_rounds) + " rounds)";
  report.layer["storage.wal_bytes_per_row"] =
      double(at_prefix.wal_bytes - before.wal_bytes) / double(prefix_rows_logged);
  report.bases["storage.wal_bytes_per_row"] =
      std::to_string(prefix_rows_logged) + " rows written in the reference window";

  // Final compaction: the tail and the tombstones must both drain to 0.
  Compact(&L);
  if (L.engine().TailRows() != 0 || L.engine().table().NumDeleted() != 0) {
    report.Error("after the final Compact: tail " +
                 std::to_string(L.engine().TailRows()) + ", tombstones " +
                 std::to_string(L.engine().table().NumDeleted()));
  }
  CheckPass(&L, catalog, /*price_ranges=*/false);
  if (std::string diff = oracle.Diff({&L.engine().table()}); !diff.empty()) {
    report.Error("engine state before the crash: " + diff);
  }
  // Each crash/recover cycle first applies the writes of one round (8
  // appends, 8 deletes, 6 updates) after the last checkpoint, so cycle k
  // replays 22 * (k + 1) records, the same in every run.
  CrashRecoverCycles(&L, [&](int) {
    for (const Op& op : make_round(/*writes_only=*/true)) {
      if (op.kind == Op::Kind::kAppend) {
        Append(&L, op.batch);
      } else {
        ApplyWrite(&L, op.write);
      }
    }
  });
  if (config.tracing() && !WriteSpans(config.trace_out, {&log})) {
    report.Error("cannot write spans to " + config.trace_out);
  }
  return report;
}

}  // namespace perfbench
