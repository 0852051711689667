// The benchmark's independent oracle: its own shadow copy of every row,
// kept as decoded values (category labels as strings interned in the
// oracle's own dictionary, not the table's), plus the live-row set that
// every acknowledged write changes. Rows are identified by their unique
// ItemID. Select counts are answered by brute force over that copy, with
// no use of Query::Matches or any exec code.
#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <array>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "storage/table.h"

namespace perfbench {

/// One select as the benchmark describes it, before it is bound to a
/// corrmap::Query. Both the engine query and the oracle count derive from
/// this one spec.
struct QuerySpec {
  enum class Kind : uint8_t { kLabel, kPriceRange, kItemRange, kCatidRange };
  Kind kind = Kind::kLabel;
  size_t column = 0;  ///< kLabel: table column of CAT3..CAT6
  std::string label;  ///< kLabel: the decoded category label
  double lo = 0, hi = 0;
};

/// A row as the oracle holds it (decoded values).
struct ShadowRow {
  int64_t catid = 0;
  std::array<std::string, 6> cats;  ///< CAT1..CAT6 labels
  int64_t item = 0;
  double price = 0;
};

class Oracle {
 public:
  /// Copies every live row of `table` by decoding its values.
  void Load(const corrmap::Table& table);

  void Add(const ShadowRow& row);
  /// False when `item` is not live.
  bool Remove(int64_t item);
  bool SetPrice(int64_t item, double price);

  /// Brute-force count of live rows satisfying `q`.
  uint64_t Count(const QuerySpec& q) const;

  /// Compares the live rows of `table` (decoded) with the shadow copy:
  /// every shadow row present with equal values, nothing else. Returns an
  /// empty string on agreement, else a description of the first mismatch.
  std::string Diff(const std::vector<const corrmap::Table*>& tables) const;

 private:
  struct Slot {
    int64_t catid = 0;
    std::array<int32_t, 6> cats{};
    int64_t item = 0;
    double price = 0;
    bool live = false;
  };
  int32_t Intern(const std::string& s);

  std::vector<std::string> labels_;
  std::unordered_map<std::string, int32_t> label_ids_;
  std::vector<Slot> slots_;
  std::unordered_map<int64_t, size_t> by_item_;  ///< live rows only
};

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
