#include "oracle.h"

#include <string>

#include "workload/ebay_gen.h"

namespace perfbench {

using corrmap::kEbay;

namespace {

ShadowRow DecodeRow(const corrmap::Table& t, corrmap::RowId r) {
  ShadowRow row;
  row.catid = t.GetValue(r, kEbay.catid).AsInt64();
  const size_t cat_cols[6] = {kEbay.cat1, kEbay.cat2, kEbay.cat3,
                              kEbay.cat4, kEbay.cat5, kEbay.cat6};
  for (size_t i = 0; i < 6; ++i) {
    row.cats[i] = t.GetValue(r, cat_cols[i]).AsString();
  }
  row.item = t.GetValue(r, kEbay.item_id).AsInt64();
  row.price = t.GetValue(r, kEbay.price).AsDouble();
  return row;
}

}  // namespace

int32_t Oracle::Intern(const std::string& s) {
  auto [it, inserted] = label_ids_.emplace(s, int32_t(labels_.size()));
  if (inserted) labels_.push_back(s);
  return it->second;
}

void Oracle::Load(const corrmap::Table& table) {
  const size_t n = table.NumRows();
  slots_.reserve(n + n / 4);
  by_item_.reserve(n + n / 4);
  for (corrmap::RowId r = 0; r < n; ++r) {
    if (!table.IsDeleted(r)) Add(DecodeRow(table, r));
  }
}

void Oracle::Add(const ShadowRow& row) {
  Slot s;
  s.catid = row.catid;
  for (size_t i = 0; i < 6; ++i) s.cats[i] = Intern(row.cats[i]);
  s.item = row.item;
  s.price = row.price;
  s.live = true;
  by_item_[row.item] = slots_.size();
  slots_.push_back(s);
}

bool Oracle::Remove(int64_t item) {
  auto it = by_item_.find(item);
  if (it == by_item_.end()) return false;
  slots_[it->second].live = false;
  by_item_.erase(it);
  return true;
}

bool Oracle::SetPrice(int64_t item, double price) {
  auto it = by_item_.find(item);
  if (it == by_item_.end()) return false;
  slots_[it->second].price = price;
  return true;
}

uint64_t Oracle::Count(const QuerySpec& q) const {
  uint64_t n = 0;
  switch (q.kind) {
    case QuerySpec::Kind::kLabel: {
      auto it = label_ids_.find(q.label);
      if (it == label_ids_.end()) return 0;
      const size_t level = q.column - kEbay.cat1;
      for (const Slot& s : slots_) {
        n += s.live && s.cats[level] == it->second;
      }
      break;
    }
    case QuerySpec::Kind::kPriceRange:
      for (const Slot& s : slots_) {
        n += s.live && s.price >= q.lo && s.price <= q.hi;
      }
      break;
    case QuerySpec::Kind::kItemRange:
      for (const Slot& s : slots_) {
        n += s.live && double(s.item) >= q.lo && double(s.item) <= q.hi;
      }
      break;
    case QuerySpec::Kind::kCatidRange:
      for (const Slot& s : slots_) {
        n += s.live && double(s.catid) >= q.lo && double(s.catid) <= q.hi;
      }
      break;
  }
  return n;
}

std::string Oracle::Diff(
    const std::vector<const corrmap::Table*>& tables) const {
  std::vector<bool> seen(slots_.size(), false);
  size_t live = 0;
  for (const corrmap::Table* t : tables) {
    for (corrmap::RowId r = 0; r < t->NumRows(); ++r) {
      if (t->IsDeleted(r)) continue;
      ++live;
      const ShadowRow got = DecodeRow(*t, r);
      auto it = by_item_.find(got.item);
      if (it == by_item_.end()) {
        return "row with ItemID " + std::to_string(got.item) +
               " is live but was never acknowledged (or was deleted)";
      }
      if (seen[it->second]) {
        return "ItemID " + std::to_string(got.item) + " is live twice";
      }
      seen[it->second] = true;
      const Slot& s = slots_[it->second];
      bool same = got.catid == s.catid && got.price == s.price;
      for (size_t i = 0; i < 6 && same; ++i) {
        same = got.cats[i] == labels_[size_t(s.cats[i])];
      }
      if (!same) {
        return "ItemID " + std::to_string(got.item) +
               " holds values that differ from the acknowledged ones";
      }
    }
  }
  if (live != by_item_.size()) {
    return std::to_string(by_item_.size() - live) +
           " acknowledged rows are missing (" + std::to_string(live) +
           " live, " + std::to_string(by_item_.size()) + " expected)";
  }
  return "";
}

}  // namespace perfbench
