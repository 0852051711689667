// The benchmark's workloads and the fixture they share: run options, the
// report every workload fills, the eBay catalog helpers that generate
// appended rows and selects, and the binding of a QuerySpec to a Query.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/value.h"
#include "core/correlation_map.h"
#include "exec/predicate.h"
#include "oracle.h"
#include "spans.h"
#include "storage/table.h"
#include "util.h"
#include "workload/ebay_gen.h"

namespace perfbench {

struct Config {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  /// Where the traced run writes its spans; empty = tracing off.
  std::string trace_out;
  /// Set-ups timed per run (setup_s is their median).
  int setups = 5;
  /// Shrinks tables and round counts for the self-check smoke.
  bool small = false;
  /// Checks every select against the oracle, not a seeded sample.
  bool check_all = false;
  /// Self-check fault injection: "wrong_count" or "drop_row".
  std::string inject;

  bool tracing() const { return !trace_out.empty(); }
};

struct OpCount {
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

struct Report {
  std::map<std::string, OpCount> ops;
  /// End-to-end metrics by name (units are fixed in BENCHMARK.json).
  std::map<std::string, double> metrics;
  /// Per-layer figures read from the program's own counters (the span
  /// summarizer derives the rest from the traced run).
  std::map<std::string, double> layer;
  /// Base of every ratio in `layer`, as text.
  std::map<std::string, std::string> bases;
  /// Correctness failures; the run is correct iff this stays empty.
  std::vector<std::string> errors;
  /// Op rounds every run completes whatever its length; count metrics are
  /// taken over them, so they repeat exactly for a fixed seed.
  size_t reference_rounds = 0;

  void Count(const std::string& op, bool ok) {
    OpCount& c = ops[op];
    ++c.attempted;
    if (!ok) ++c.failed;
  }
  void Error(std::string msg) {
    if (errors.size() < 20) errors.push_back(std::move(msg));
  }
};

/// Everything the benchmark knows about one leaf category, taken from the
/// generated table: the physical keys and decoded labels of CAT1..CAT6 and
/// the mean item price (new rows are priced around it).
struct Category {
  std::array<corrmap::Key, 6> cat_keys;
  std::array<std::string, 6> cat_labels;
  double mean_price = 0;
};

struct Catalog {
  std::vector<Category> categories;  ///< indexed by CATID
  /// Distinct labels per level, index 0 = CAT1.
  std::array<std::vector<std::string>, 6> labels;
  int64_t max_item = 0;
  double max_price = 0;

  static Catalog FromTable(const corrmap::Table& table);
};

/// Generator configuration for `categories` leaf categories. The table is
/// the generator's default one (its own fixed seed), so every run seed
/// serves the same data -- 204,539 rows at 1,200 categories, 419,180 at
/// 2,400 -- and only the operation stream follows the run seed. The
/// tables sit near the 4,096-page pool, where a 2% larger table tips the
/// sweeps into LRU eviction; a seed-dependent table size would make that
/// cliff, not the program, set the run-to-run spread.
corrmap::EbayGenConfig TableConfig(size_t categories);

/// One row to append: physical keys for the engine, decoded values for the
/// oracle.
struct NewRow {
  std::vector<corrmap::Key> keys;
  ShadowRow shadow;
};
NewRow MakeRow(const Catalog& catalog, int64_t catid, int64_t item,
               double price);

/// Binds a spec to a query over `table` (string labels are encoded through
/// the table's dictionary, which every clone and shard shares).
corrmap::Query BindQuery(const corrmap::Table& table, const QuerySpec& spec);

/// A point select on `column` (one of CAT3..CAT6) for a label drawn from
/// the catalog.
QuerySpec LabelSelect(const Catalog& catalog, size_t column,
                      std::mt19937_64* rng);

using Rng = std::mt19937_64;
inline double Uniform(Rng* rng, double lo, double hi) {
  return std::uniform_real_distribution<double>(lo, hi)(*rng);
}
inline int64_t UniformInt(Rng* rng, int64_t lo, int64_t hi) {
  return std::uniform_int_distribution<int64_t>(lo, hi)(*rng);
}

/// Whether the seeded sampler picks op number `n` for an in-loop oracle
/// check (every op when check_all).
bool SampledForCheck(const Config& config, uint64_t n);

/// Set-up failures end the run with exit code 2 and no report.
[[noreturn]] void Die(const std::string& what, const corrmap::Status& s);

/// An identity CM on `col` over the clustered CATID.
corrmap::CmOptions IdentityCm(size_t col);

/// Runs `build(log, &seconds)` config.setups times and keeps the last
/// result (only its spans reach `log`); setup_s is the median time, each
/// set-up scaled by the host speed around it (util.h).
template <typename Build>
auto TimedSetUps(const Config& config, SpanLog* log, Report* report,
                 Build build) {
  const int n = std::max(1, config.setups);
  std::vector<double> times, raw;
  decltype(build(log, nullptr)) kept;
  for (int i = 0; i < n; ++i) {
    kept.reset();
    SpanLog scratch(false);
    double seconds = 0;
    const double host0 = SampleHostMs();
    kept = build(i + 1 == n ? log : &scratch, &seconds);
    const double host_ms = (host0 + SampleHostMs()) / 2;
    raw.push_back(seconds);
    times.push_back(seconds * ToReference(host_ms));
  }
  report->metrics["setup_s"] = Median(times);
  report->metrics["setup_s_raw"] = Median(raw);
  return kept;
}

Report RunCmSelect(const Config& config);
Report RunCrudChurn(const Config& config);
Report RunRoutedScatter(const Config& config);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
