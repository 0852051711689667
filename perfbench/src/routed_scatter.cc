// routed_scatter: a ShardRouter over 4 range shards (one worker each,
// sequential scatter), the
// paper-default eBay table (about twice the router's shared 4,096-page
// pool), identity CMs on CAT3..CAT6, and two closed-loop client threads.
// Every shard keeps a small unclustered tail, so CAT5/CAT6 points from a
// fixed pool fan out to all 4 shards; CATID ranges route to 1-2 shards;
// one 16-row routed append per round of 100 ops. The clients meet every
// epoch of 50 rounds; every fourth meeting compacts the shards (clock
// stopped) so the tails stay small.
#include <algorithm>
#include <barrier>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/serving_metrics.h"
#include "serve/durability.h"
#include "serve/shard_router.h"
#include "util.h"
#include "workloads.h"

namespace perfbench {
namespace {

using corrmap::Key;
using corrmap::kEbay;
using corrmap::Query;
using corrmap::Status;
using corrmap::Table;
using corrmap::serve::Durability;
using corrmap::serve::RoutedSelectResult;
using corrmap::serve::RouterOptions;
using corrmap::serve::ShardRouter;

constexpr size_t kShards = 4;
constexpr size_t kClients = 2;
constexpr size_t kRoundOps = 100;
constexpr size_t kRangeOps = 30;  ///< CATID ranges per round
constexpr size_t kPoolQueries = 256;
constexpr size_t kBatchRows = 16;
constexpr size_t kCheckPassSelects = 128;
constexpr int kRecoverCycles = 7;

constexpr size_t kCmCols[4] = {kEbay.cat3, kEbay.cat4, kEbay.cat5, kEbay.cat6};

/// The router with everything it borrows; the router is destroyed first.
struct RouterSetup {
  std::unique_ptr<Table> table;
  std::unique_ptr<corrmap::obs::ServingMetrics> metrics;
  std::vector<std::unique_ptr<Durability>> durability;
  RouterOptions options;
  std::unique_ptr<ShardRouter> router;
};

std::unique_ptr<RouterSetup> BuildRouter(size_t categories,
                                         SpanLog* log, double* seconds) {
  auto s = std::make_unique<RouterSetup>();
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
  s->metrics = std::make_unique<corrmap::obs::ServingMetrics>();
  s->options.num_shards = kShards;
  s->options.engine.num_workers = 1;
  // The sequential scatter: each client visits the shards itself. With the
  // default parallel scatter every select wakes four worker threads, and on
  // a shared 4-core host those wake-ups stalled for milliseconds while
  // neighbours were busy: over 10 seeds ops_per_s spread 38% and the p99
  // 159% between runs, past any bound the benchmark can hold.
  s->options.parallel_scatter = false;
  s->options.engine.metrics = s->metrics.get();
  for (size_t i = 0; i < kShards; ++i) {
    corrmap::serve::DurabilityOptions d;
    d.metrics = s->metrics.get();
    s->durability.push_back(std::make_unique<Durability>(d));
    s->options.shard_durability.push_back(s->durability.back().get());
  }
  auto created = ShardRouter::Create(*s->table, kEbay.catid, s->options);
  if (!created.ok()) Die("ShardRouter::Create", created.status());
  s->router = std::move(*created);
  t1 = NowNs();
  log->Add("serve.ShardRouter::Create", -1, 0, -1, ta, t1);
  for (size_t col : kCmCols) {
    const uint64_t heap0 = HeapBytesInUse();
    ta = NowNs();
    if (Status st = s->router->AttachCm(IdentityCm(col)); !st.ok()) {
      Die("AttachCm", st);
    }
    t1 = NowNs();
    double logical = 0;
    const size_t slot = s->router->shard(0).num_cms() - 1;
    for (size_t i = 0; i < s->router->num_shards(); ++i) {
      logical += double(s->router->shard(i).cm(slot).SizeBytes());
    }
    log->Add("serve.ShardRouter::AttachCm", -1, 0, -1, ta, t1,
             {double(col), double(HeapBytesInUse()) - double(heap0), logical});
  }
  *seconds = double(NowNs() - t0) * 1e-9;
  return s;
}

struct Op {
  enum class Kind : uint8_t { kSelect, kAppend } kind = Kind::kSelect;
  const QuerySpec* spec = nullptr;  ///< pool entries or `owned`
  const Query* query = nullptr;
  QuerySpec owned_spec;
  Query owned_query;
  std::vector<std::vector<Key>> rows;
  std::vector<ShadowRow> shadow;
};

/// Everything one client thread records; merged after the join.
struct Client {
  Client(uint32_t id, bool traced, uint64_t seed) : log(traced, id), rng(seed) {}
  SpanLog log;
  Rng rng;
  std::vector<std::vector<Op>> rounds;  ///< the current epoch's
  Report report;
  std::vector<double> select_us;
  std::vector<double> append_us;
  double sim_ms = 0;
  uint64_t selects = 0;
  uint64_t ops = 0;
};

/// Shards the router visits for `spec` (CATID ranges route by key; other
/// selects visit every shard its CM cannot rule out).
std::vector<size_t> VisitedShards(ShardRouter& router, const QuerySpec& spec,
                                  const Query& q) {
  std::vector<size_t> out;
  if (spec.kind == QuerySpec::Kind::kCatidRange) {
    const size_t lo = router.RouteKey(Key(int64_t(spec.lo)));
    const size_t hi = router.RouteKey(Key(int64_t(spec.hi)));
    for (size_t i = lo; i <= hi; ++i) out.push_back(i);
    return out;
  }
  for (size_t i = 0; i < router.num_shards(); ++i) {
    bool applicable = false;
    if (!router.shard(i).CanSkipForQuery(q, &applicable) || !applicable) {
      out.push_back(i);
    }
  }
  return out;
}

void RoutedSelect(ShardRouter& router, const Op& op, Client* c,
                  int64_t round, uint64_t req) {
  const int64_t t0 = NowNs();
  const RoutedSelectResult r = router.ExecuteSelect(*op.query);
  const int64_t t1 = NowNs();
  c->select_us.push_back(double(t1 - t0) * 1e-3);
  c->sim_ms += r.merged.simulated_ms;
  ++c->selects;
  bool ok = true;
  const QuerySpec& spec = *op.spec;
  if (spec.kind == QuerySpec::Kind::kLabel &&
      (spec.column == kEbay.cat5 || spec.column == kEbay.cat6) &&
      r.shards_visited != router.num_shards()) {
    ok = false;
    c->report.Error("CAT5/CAT6 select visited " +
                    std::to_string(r.shards_visited) + " of " +
                    std::to_string(router.num_shards()) + " shards");
  }
  c->report.Count("select", ok);
  if (!c->log.enabled()) return;
  const int64_t root = c->log.Open("op.select", req, round, t0);
  c->log.Add("serve.ShardRouter::ExecuteSelect", root, req, round, t0, t1,
             {double(r.merged.rows_examined), double(r.merged.plan_candidates),
              double(r.merged.tail_rows_swept), double(r.shards_visited),
              double(r.shards_pruned), double(r.merged.num_matches)});
  // Shadow calls: each visited shard's own select on the same query.
  for (size_t i : VisitedShards(router, spec, *op.query)) {
    const int64_t ta = NowNs();
    const auto sr = router.shard(i).ExecuteSelect(*op.query);
    c->log.Add("serve.shard.ServingEngine::ExecuteSelect", root, req, round,
               ta, NowNs(),
               {double(i), double(sr.rows_examined),
                double(sr.plan_candidates), double(sr.tail_rows_swept)});
  }
  c->log.Close(root, NowNs(), {double(int(spec.kind))});
}

}  // namespace

Report RunRoutedScatter(const Config& config) {
  Report report;
  const bool traced = config.tracing();
  SpanLog setup_log(traced, 0);
  const size_t categories = config.small ? 240 : 2400;
  // Rounds per client in an epoch (the clients meet at its end); the first
  // epoch is the reference every run completes.
  const size_t epoch_rounds = config.small ? 2 : 50;
  const size_t compact_every = config.small ? 1 : 4;
  report.reference_rounds = epoch_rounds;

  std::unique_ptr<RouterSetup> s = TimedSetUps(
      config, &setup_log, &report,
      [&](SpanLog* l, double* seconds) { return BuildRouter(categories, l, seconds); });
  ShardRouter& router = *s->router;

  Oracle oracle;
  oracle.Load(*s->table);
  std::mutex oracle_mu;
  const Catalog catalog = Catalog::FromTable(*s->table);
  Rng rng(config.seed);
  int64_t next_item = catalog.max_item + 1;
  const auto make_batch = [&](Rng* r, const std::vector<int64_t>& cats,
                              std::vector<std::vector<Key>>* keys,
                              std::vector<ShadowRow>* shadow) {
    for (int64_t cat : cats) {
      NewRow row = MakeRow(catalog, cat, next_item++,
                           catalog.categories[size_t(cat)].mean_price +
                               Uniform(r, -200, 200));
      keys->push_back(std::move(row.keys));
      shadow->push_back(std::move(row.shadow));
    }
  };

  // A tail-seeding batch holds one row inside each shard's key range, so no
  // shard can be pruned (a shard whose tail is empty and whose CM has no
  // match would be). One seeds the tails before the loop; one more follows
  // every end-of-epoch compaction.
  struct SeedBatch {
    std::vector<std::vector<Key>> keys;
    std::vector<ShadowRow> shadow;
  };
  const auto make_seed_batch = [&] {
    std::vector<int64_t> cats;
    const std::vector<Key>& splits = router.split_keys();
    for (size_t sh = 0; sh < router.num_shards(); ++sh) {
      const int64_t lo = sh == 0 ? 0 : splits[sh - 1].AsInt64();
      const int64_t hi = sh + 1 < router.num_shards()
                             ? splits[sh].AsInt64() - 1
                             : int64_t(catalog.categories.size()) - 1;
      cats.push_back(UniformInt(&rng, lo, hi));
    }
    SeedBatch b;
    make_batch(&rng, cats, &b.keys, &b.shadow);
    return b;
  };
  const auto seed_tails = [&](const SeedBatch& b, Report* rep) {
    const Status st = router.ApplyAppend(b.keys);
    if (st.ok()) {
      std::lock_guard<std::mutex> lock(oracle_mu);
      for (const ShadowRow& r : b.shadow) oracle.Add(r);
    } else {
      rep->Error("seeding the shard tails: " + st.ToString());
    }
    rep->Count("seed_append", st.ok());
  };

  // The fixed pool of CAT5/CAT6 points (repeats hit the lookup cache).
  std::vector<QuerySpec> pool_specs;
  std::vector<Query> pool_queries;
  const size_t points_cols[2] = {kEbay.cat5, kEbay.cat6};
  for (size_t i = 0; i < kPoolQueries; ++i) {
    pool_specs.push_back(LabelSelect(catalog, points_cols[i % 2], &rng));
  }
  for (const QuerySpec& q : pool_specs) pool_queries.push_back(BindQuery(*s->table, q));
  const auto catid_range = [&](Rng* r) {
    QuerySpec q;
    q.kind = QuerySpec::Kind::kCatidRange;
    q.lo = double(UniformInt(r, 0, int64_t(catalog.categories.size()) - 1));
    q.hi = q.lo + double(UniformInt(r, 0, 40));
    return q;
  };

  // One epoch of rounds per client, generated before the loop starts and
  // then at every barrier with the clock stopped.
  const auto generate_epoch = [&](Client* c) {
    c->rounds.clear();
    for (size_t round = 0; round < epoch_rounds; ++round) {
      std::vector<Op> ops(kRoundOps);
      for (size_t i = 0; i < kRoundOps; ++i) {
        Op& op = ops[i];
        if (i == 0) {
          op.kind = Op::Kind::kAppend;
          std::vector<int64_t> cats;
          for (size_t k = 0; k < kBatchRows; ++k) {
            cats.push_back(
                UniformInt(&c->rng, 0, int64_t(catalog.categories.size()) - 1));
          }
          make_batch(&c->rng, cats, &op.rows, &op.shadow);
        } else if (i <= kRangeOps) {
          op.owned_spec = catid_range(&c->rng);
          op.owned_query = BindQuery(*s->table, op.owned_spec);
        } else {
          const size_t k = size_t(UniformInt(&c->rng, 0, kPoolQueries - 1));
          op.spec = &pool_specs[k];
          op.query = &pool_queries[k];
        }
      }
      std::shuffle(ops.begin(), ops.end(), c->rng);
      for (Op& op : ops) {
        if (op.kind == Op::Kind::kSelect && op.spec == nullptr) {
          op.spec = &op.owned_spec;
          op.query = &op.owned_query;
        }
      }
      c->rounds.push_back(std::move(ops));
    }
  };
  std::vector<std::unique_ptr<Client>> clients;
  for (uint32_t id = 0; id < kClients; ++id) {
    clients.push_back(std::make_unique<Client>(id + 1, traced,
                                               config.seed * 1000003ULL + id));
    generate_epoch(clients.back().get());
  }
  seed_tails(make_seed_batch(), &report);

  // Both clients meet after every epoch_rounds rounds. The barrier's
  // completion step closes the epoch's window, and after every
  // compact_every epochs compacts every shard (a fixed point of the
  // op sequence) and re-seeds the tails, with the loop clock stopped: the
  // compaction only keeps the tails small and is not the traffic this
  // workload measures. It then decides whether the run is over and, if not,
  // generates the next epoch's rounds (clock stopped).
  const auto cache0 = router.cache().stats();
  const auto pool0 = router.pool()->stats();
  Report maintenance;
  SpanLog maintenance_log(traced, kClients + 1);
  size_t epochs_done = 0;
  bool stop = false;
  LoopTimer timer;
  // Each epoch of client traffic is one window of the wall-clock metrics
  // (util.h), taken as measured: the host-speed kernel, run on the two
  // client threads at the barrier, did not track this workload, whose
  // speed is set by two clients contending for the router's shared locks,
  // lookup cache and buffer pool (scaling by it widened the run-to-run
  // spread of ops_per_s from 4-8% to 13-15% over 5 seeds).
  WindowSeries windows;
  double win_wall0 = 0, win_cpu0 = 0;
  uint64_t win_ops0 = 0;
  std::vector<size_t> win_select0(kClients, 0), win_append0(kClients, 0);
  const auto close_window = [&] {
    uint64_t ops_now = 0;
    std::vector<double> sel, app;
    for (size_t i = 0; i < kClients; ++i) {
      const Client& c = *clients[i];
      ops_now += c.ops;
      sel.insert(sel.end(), c.select_us.begin() + long(win_select0[i]), c.select_us.end());
      app.insert(app.end(), c.append_us.begin() + long(win_append0[i]), c.append_us.end());
      win_select0[i] = c.select_us.size();
      win_append0[i] = c.append_us.size();
    }
    const double wall = timer.WallSeconds(), cpu = timer.CpuSeconds();
    windows.Add(ops_now - win_ops0, wall - win_wall0, cpu - win_cpu0, sel, app,
                /*host_ms=*/0);
    win_ops0 = ops_now;
    win_wall0 = wall;
    win_cpu0 = cpu;
  };
  const auto end_of_epoch = [&]() noexcept {
    ++epochs_done;
    close_window();
    const int64_t round = int64_t(epochs_done * epoch_rounds) - 1;
    if (epochs_done % compact_every == 0) {
      timer.Paused([&] {
        for (size_t sh = 0; sh < router.num_shards(); ++sh) {
          const int64_t t0 = NowNs();
          const auto res = router.Compact(sh);
          const int64_t t1 = NowNs();
          if (!res.ok()) maintenance.Error("Compact: " + res.status().ToString());
          maintenance.Count("compact", res.ok());
          maintenance_log.Add("serve.ShardRouter::Compact", -1, 0, round, t0, t1,
                              {double(sh), res.ok() ? double(res->rows_clustered) : 0});
        }
        seed_tails(make_seed_batch(), &maintenance);
      });
    }
    stop = timer.WallSeconds() >= config.seconds;
    if (!stop) {
      timer.Paused([&] {
        for (auto& c : clients) generate_epoch(c.get());
      });
    }
  };
  std::barrier sync(std::ptrdiff_t(kClients), end_of_epoch);
  const auto client_main = [&](Client* c) {
    uint64_t req = uint64_t(c->log.thread()) << 40;
    for (size_t round = 0;; ++round) {
      for (const Op& op : c->rounds[round % epoch_rounds]) {
        ++req;
        ++c->ops;
        if (op.kind == Op::Kind::kSelect) {
          RoutedSelect(router, op, c, int64_t(round), req);
          continue;
        }
        const int64_t t0 = NowNs();
        const Status st = router.ApplyAppend(op.rows);
        const int64_t t1 = NowNs();
        c->append_us.push_back(double(t1 - t0) * 1e-3);
        if (st.ok()) {
          std::lock_guard<std::mutex> lock(oracle_mu);
          for (const ShadowRow& r : op.shadow) oracle.Add(r);
        } else {
          c->report.Error("routed append refused: " + st.ToString());
        }
        c->report.Count("append", st.ok());
        if (c->log.enabled()) {
          const int64_t root = c->log.Open("op.append", req, int64_t(round), t0);
          c->log.Add("serve.ShardRouter::ApplyAppend", root, req, int64_t(round),
                     t0, t1, {double(op.rows.size())});
          const int64_t ta = NowNs();
          const std::string payload = Durability::EncodeAppend(0, op.rows);
          c->log.Add("storage.Durability::EncodeAppend", root, req,
                     int64_t(round), ta, NowNs(),
                     {double(payload.size()), double(op.rows.size())});
          c->log.Close(root, NowNs());
        }
      }
      if ((round + 1) % epoch_rounds == 0) {
        sync.arrive_and_wait();
        if (stop) return;
      }
    }
  };

  timer.Start();
  {
    std::vector<std::thread> threads;
    for (auto& c : clients) threads.emplace_back(client_main, c.get());
    for (std::thread& t : threads) t.join();
  }
  timer.Pause();

  double sim_ms = 0;
  uint64_t selects = 0;
  const auto merge = [&](const Report& r) {
    for (const auto& [name, n] : r.ops) {
      report.ops[name].attempted += n.attempted;
      report.ops[name].failed += n.failed;
    }
    for (const std::string& e : r.errors) report.Error(e);
  };
  merge(maintenance);
  for (auto& c : clients) {
    sim_ms += c->sim_ms;
    selects += c->selects;
    merge(c->report);
  }
  windows.Report(&report.metrics);
  report.metrics["sim_ms_per_select"] = sim_ms / double(selects);
  report.metrics["rss_mb"] = ResidentMb();
  const auto cache1 = router.cache().stats();
  const auto pool1 = router.pool()->stats();
  const uint64_t gets = (cache1.hits - cache0.hits) + (cache1.misses - cache0.misses);
  report.layer["serve.lookup_cache_hit_ratio"] =
      gets ? double(cache1.hits - cache0.hits) / double(gets) : 0;
  report.bases["serve.lookup_cache_hit_ratio"] =
      std::to_string(gets) + " cache gets in the timed loop";
  report.layer["serve.lookup_cache_entries"] = double(router.cache().Size());
  const uint64_t touches = (pool1.hits - pool0.hits) + (pool1.misses - pool0.misses);
  report.layer["storage.pool_hit_ratio"] =
      touches ? double(pool1.hits - pool0.hits) / double(touches) : 0;
  report.bases["storage.pool_hit_ratio"] =
      std::to_string(touches) + " page touches in the timed loop";

  // Check pass at quiescence: a seeded sample of the last epoch's selects
  // (every distinct one in check mode) against the oracle.
  std::vector<const QuerySpec*> checks;
  std::vector<const Query*> check_queries;
  if (config.check_all) {
    for (size_t i = 0; i < kPoolQueries; ++i) {
      checks.push_back(&pool_specs[i]);
      check_queries.push_back(&pool_queries[i]);
    }
    for (auto& c : clients) {
      for (const auto& ops_in_round : c->rounds) {
        for (const Op& op : ops_in_round) {
          if (op.kind == Op::Kind::kSelect && op.spec == &op.owned_spec) {
            checks.push_back(op.spec);
            check_queries.push_back(op.query);
          }
        }
      }
    }
  } else {
    Rng crng(config.seed * 0x2545F4914F6CDD1DULL + 7);
    while (checks.size() < kCheckPassSelects) {
      const Client& c = *clients[size_t(UniformInt(&crng, 0, kClients - 1))];
      const auto& ops_in_round =
          c.rounds[size_t(UniformInt(&crng, 0, int64_t(epoch_rounds) - 1))];
      const Op& op = ops_in_round[size_t(UniformInt(&crng, 0, kRoundOps - 1))];
      if (op.kind != Op::Kind::kSelect) continue;
      checks.push_back(op.spec);
      check_queries.push_back(op.query);
    }
  }
  bool injected = false;
  const auto check = [&](ShardRouter& r, size_t i, const char* what) {
    uint64_t got = r.ExecuteSelect(*check_queries[i]).merged.num_matches;
    if (config.inject == "wrong_count" && !injected) {
      injected = true;
      ++got;
    }
    const uint64_t want = oracle.Count(*checks[i]);
    if (got != want) {
      report.Error(std::string(what) + ": router counted " + std::to_string(got) +
                   ", oracle " + std::to_string(want) + " for " +
                   check_queries[i]->ToString(*s->table));
    }
    report.Count(what, got == want);
  };
  for (size_t i = 0; i < checks.size(); ++i) check(router, i, "check_select");
  if (Status st = router.CheckInvariants(); !st.ok()) {
    report.Error("ShardRouter::CheckInvariants: " + st.ToString());
  }

  // kRecoverCycles crash/recover cycles spread over a few seconds: one
  // routed 16-row append, FlushNow and Crash on every shard's log, then a
  // timed ShardRouter::Recover whose router replaces the crashed one and is
  // checked row by row against the oracle. serve.recover_s is the fastest
  // cycle.
  const std::vector<Key> splits = router.split_keys();
  corrmap::serve::ServingEngine::RecoverSpec spec;
  for (size_t col : kCmCols) spec.cms.push_back({IdentityCm(col), 0});
  std::vector<double> recover_s;
  for (int cycle = 0; cycle < kRecoverCycles; ++cycle) {
    std::vector<int64_t> cats;
    for (size_t k = 0; k < kBatchRows; ++k) {
      cats.push_back(UniformInt(&rng, 0, int64_t(catalog.categories.size()) - 1));
    }
    SeedBatch batch;
    make_batch(&rng, cats, &batch.keys, &batch.shadow);
    const Status st = s->router->ApplyAppend(batch.keys);
    if (st.ok()) {
      for (const ShadowRow& r : batch.shadow) oracle.Add(r);
    } else {
      report.Error("routed append refused: " + st.ToString());
    }
    report.Count("append", st.ok());
    for (auto& d : s->durability) {
      d->FlushNow();
      d->Crash(0);
    }
    s->router.reset();
    std::vector<corrmap::serve::RecoveryStats> stats;
    const int64_t t0 = NowNs();
    auto rec = ShardRouter::Recover(kEbay.catid, splits, s->options, spec, &stats);
    const int64_t t1 = NowNs();
    if (!rec.ok()) {
      report.Error("ShardRouter::Recover: " + rec.status().ToString());
      report.Count("recover", false);
      break;
    }
    s->router = std::move(*rec);
    recover_s.push_back(double(t1 - t0) * 1e-9);
    double replayed = 0;
    for (const auto& rs : stats) replayed += double(rs.records_scanned);
    setup_log.Add("serve.ShardRouter::Recover", -1, 0, -1, t0, t1, {replayed});
    report.layer["serve.recover_records_replayed"] = replayed;
    ShardRouter& rr = *s->router;
    if (config.inject == "drop_row" && cycle == 0) {
      const Table& t = rr.shard(0).table();
      for (corrmap::RowId r = 0; r < t.NumRows(); ++r) {
        if (!t.IsDeleted(r)) {
          (void)rr.ApplyDelete(0, r);
          break;
        }
      }
    }
    std::vector<const Table*> tables;
    for (size_t i = 0; i < rr.num_shards(); ++i) tables.push_back(&rr.shard(i).table());
    std::string diff = oracle.Diff(tables);
    if (diff.empty()) {
      if (Status cs = rr.CheckInvariants(); !cs.ok()) diff = cs.ToString();
    }
    if (!diff.empty()) report.Error("recovered partition: " + diff);
    report.Count("recover", diff.empty());
  }
  report.layer["serve.recover_s"] = Quantile(recover_s, 0);

  if (traced) {
    std::vector<const SpanLog*> logs{&setup_log, &maintenance_log};
    for (auto& c : clients) logs.push_back(&c->log);
    if (!WriteSpans(config.trace_out, logs)) {
      report.Error("cannot write spans to " + config.trace_out);
    }
  }
  return report;
}

}  // namespace perfbench
