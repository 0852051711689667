#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "workloads.h"

namespace perfbench {

using corrmap::Key;
using corrmap::kEbay;
using corrmap::Predicate;
using corrmap::Value;

namespace {
constexpr const char* kColumnNames[] = {"CATID", "CAT1", "CAT2",
                                        "CAT3",  "CAT4", "CAT5",
                                        "CAT6",  "ItemID", "Price"};
constexpr size_t kCatCols[6] = {kEbay.cat1, kEbay.cat2, kEbay.cat3,
                                kEbay.cat4, kEbay.cat5, kEbay.cat6};
/// One in kCheckEvery ops is checked against the oracle inside the loop.
constexpr uint64_t kCheckEvery = 16;
}  // namespace

Catalog Catalog::FromTable(const corrmap::Table& table) {
  Catalog c;
  std::vector<double> price_sum;
  std::vector<size_t> price_n;
  std::array<std::map<std::string, bool>, 6> distinct;
  for (corrmap::RowId r = 0; r < table.NumRows(); ++r) {
    const size_t cat = size_t(table.GetKey(r, kEbay.catid).AsInt64());
    if (cat >= c.categories.size()) {
      c.categories.resize(cat + 1);
      price_sum.resize(cat + 1, 0);
      price_n.resize(cat + 1, 0);
    }
    Category& k = c.categories[cat];
    if (price_n[cat] == 0) {
      for (size_t i = 0; i < 6; ++i) {
        k.cat_keys[i] = table.GetKey(r, kCatCols[i]);
        k.cat_labels[i] = table.GetValue(r, kCatCols[i]).AsString();
        distinct[i][k.cat_labels[i]] = true;
      }
    }
    const double price = table.GetKey(r, kEbay.price).AsDouble();
    price_sum[cat] += price;
    ++price_n[cat];
    c.max_item = std::max(c.max_item, table.GetKey(r, kEbay.item_id).AsInt64());
    c.max_price = std::max(c.max_price, price);
  }
  for (size_t cat = 0; cat < c.categories.size(); ++cat) {
    c.categories[cat].mean_price =
        price_n[cat] ? price_sum[cat] / double(price_n[cat]) : 0;
  }
  for (size_t i = 0; i < 6; ++i) {
    for (const auto& [label, unused] : distinct[i]) c.labels[i].push_back(label);
  }
  return c;
}

corrmap::EbayGenConfig TableConfig(size_t categories) {
  corrmap::EbayGenConfig cfg;
  cfg.num_categories = categories;
  return cfg;
}

NewRow MakeRow(const Catalog& catalog, int64_t catid, int64_t item,
               double price) {
  price = std::round(price * 100.0) / 100.0;
  const Category& k = catalog.categories[size_t(catid)];
  NewRow row;
  row.keys.reserve(9);
  row.keys.push_back(Key(catid));
  for (const Key& key : k.cat_keys) row.keys.push_back(key);
  row.keys.push_back(Key(item));
  row.keys.push_back(Key(price));
  row.shadow.catid = catid;
  row.shadow.cats = k.cat_labels;
  row.shadow.item = item;
  row.shadow.price = price;
  return row;
}

corrmap::Query BindQuery(const corrmap::Table& table, const QuerySpec& spec) {
  switch (spec.kind) {
    case QuerySpec::Kind::kLabel:
      return corrmap::Query({Predicate::Eq(table, kColumnNames[spec.column],
                                           Value(spec.label))});
    case QuerySpec::Kind::kPriceRange:
      return corrmap::Query({Predicate::Between(table, "Price", Value(spec.lo),
                                                Value(spec.hi))});
    case QuerySpec::Kind::kItemRange:
      return corrmap::Query({Predicate::Between(
          table, "ItemID", Value(int64_t(spec.lo)), Value(int64_t(spec.hi)))});
    case QuerySpec::Kind::kCatidRange:
      return corrmap::Query({Predicate::Between(
          table, "CATID", Value(int64_t(spec.lo)), Value(int64_t(spec.hi)))});
  }
  return corrmap::Query();
}

QuerySpec LabelSelect(const Catalog& catalog, size_t column, Rng* rng) {
  QuerySpec q;
  q.kind = QuerySpec::Kind::kLabel;
  q.column = column;
  const std::vector<std::string>& labels = catalog.labels[q.column - kEbay.cat1];
  q.label = labels[size_t(UniformInt(rng, 0, int64_t(labels.size()) - 1))];
  return q;
}

void Die(const std::string& what, const corrmap::Status& s) {
  std::fprintf(stderr, "perfbench: %s: %s\n", what.c_str(), s.ToString().c_str());
  std::exit(2);
}

corrmap::CmOptions IdentityCm(size_t col) {
  corrmap::CmOptions o;
  o.u_cols = {col};
  o.u_bucketers = {corrmap::Bucketer::Identity()};
  o.c_col = kEbay.catid;
  return o;
}

bool SampledForCheck(const Config& config, uint64_t n) {
  return config.check_all ||
         corrmap::Mix64(config.seed * 0x9e3779b97f4a7c15ULL + n) % kCheckEvery == 0;
}

}  // namespace perfbench
