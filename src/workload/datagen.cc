#include "workload/datagen.h"

#include <cmath>

namespace sqp {
namespace tpch {

namespace {

/// Skewed draw from a numeric domain: Zipf over a discretized range so a
/// few values dominate — the "certain trends and patterns" of §4.1.
double SkewedNumeric(Rng& rng, ZipfGenerator& zipf, double lo, double hi) {
  uint64_t bucket = zipf.Next(rng);
  double width = (hi - lo) / static_cast<double>(zipf.n());
  return lo + (static_cast<double>(bucket) + rng.NextDouble()) * width;
}

int64_t SkewedInt(Rng& rng, ZipfGenerator& zipf, int64_t lo, int64_t hi) {
  // Map zipf rank r onto an equal slice of the domain (rank 0 -> the
  // low end), uniform within the slice, so low values are popular and
  // the whole domain is covered.
  uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
  uint64_t bucket = zipf.Next(rng);
  uint64_t slice = std::max<uint64_t>(1, span / zipf.n());
  uint64_t base = bucket * span / zipf.n();
  int64_t v = lo + static_cast<int64_t>(base + rng.NextRange(slice));
  return std::min(v, hi);
}

// A row source for `count` rows, generated one at a time: fill(r, row)
// writes row r over the reused row.
template <typename Fill>
Database::RowSource Rows(uint64_t count, Fill fill) {
  return [count, fill, r = uint64_t{0}](Tuple* row) mutable {
    if (r == count) return false;
    fill(r++, row);
    return true;
  };
}

}  // namespace

Status LoadTpch(Database* db, const LoadOptions& options) {
  TableSizes sizes = SizesForScale(options.scale);
  Rng rng(options.seed);
  ZipfGenerator zipf50(50, options.skew_theta);
  ZipfGenerator zipf100(100, options.skew_theta);

  for (const auto& table : TableNames()) {
    SQP_RETURN_IF_ERROR(db->CreateTable(table, SchemaFor(table)));
  }

  const char* mfgrs[] = {"MFGR#1", "MFGR#2", "MFGR#3", "MFGR#4", "MFGR#5"};
  const char* segments[] = {"AUTOMOBILE", "BUILDING", "FURNITURE",
                            "HOUSEHOLD", "MACHINERY"};
  ZipfGenerator zipf5(5, options.skew_theta);

  // part
  SQP_RETURN_IF_ERROR(db->BulkLoadFrom(
      "part", Rows(sizes.part, [&](uint64_t r, Tuple* row) {
        row->assign({
            Value(static_cast<int64_t>(r + 1)),
            Value(SkewedInt(rng, zipf50, 1, 50)),
            Value(SkewedNumeric(rng, zipf100, 900, 2100)),
            Value(std::string(mfgrs[zipf5.Next(rng)])),
        });
      })));

  // supplier
  SQP_RETURN_IF_ERROR(db->BulkLoadFrom(
      "supplier", Rows(sizes.supplier, [&](uint64_t r, Tuple* row) {
        row->assign({
            Value(static_cast<int64_t>(r + 1)),
            Value(rng.NextInt(0, 24)),
            Value(SkewedNumeric(rng, zipf100, -1000, 10000)),
        });
      })));

  // partsupp: 4 suppliers per part.
  SQP_RETURN_IF_ERROR(db->BulkLoadFrom(
      "partsupp", Rows(sizes.part * 4, [&](uint64_t r, Tuple* row) {
        const uint64_t p = r / 4 + 1;
        const uint64_t k = r % 4;
        uint64_t supp = 1 + (p + k * (sizes.supplier / 4 + 1)) % sizes.supplier;
        row->assign({
            Value(static_cast<int64_t>(p)),
            Value(static_cast<int64_t>(supp)),
            Value(SkewedInt(rng, zipf100, 1, 10000)),
            Value(SkewedNumeric(rng, zipf100, 1, 1000)),
        });
      })));

  // customer
  SQP_RETURN_IF_ERROR(db->BulkLoadFrom(
      "customer", Rows(sizes.customer, [&](uint64_t r, Tuple* row) {
        row->assign({
            Value(static_cast<int64_t>(r + 1)),
            Value(rng.NextInt(0, 24)),
            Value(SkewedNumeric(rng, zipf100, -1000, 10000)),
            Value(std::string(segments[zipf5.Next(rng)])),
        });
      })));

  // orders: 10 per customer, skewed dates and totals.
  ZipfGenerator zipf_date(256, options.skew_theta);
  SQP_RETURN_IF_ERROR(db->BulkLoadFrom(
      "orders", Rows(sizes.customer * 10, [&](uint64_t r, Tuple* row) {
        // 0..2559, clustered toward low ranks.
        int64_t date = static_cast<int64_t>(zipf_date.Next(rng)) * 10 +
                       rng.NextInt(0, 9);
        row->assign({
            Value(static_cast<int64_t>(r + 1)),
            Value(static_cast<int64_t>(r / 10 + 1)),
            Value(SkewedNumeric(rng, zipf100, 1000, 500000)),
            Value(std::min<int64_t>(date, 2555)),
        });
      })));

  // lineitem: 4 per order.
  SQP_RETURN_IF_ERROR(db->BulkLoadFrom(
      "lineitem", Rows(sizes.orders * 4, [&](uint64_t r, Tuple* row) {
        int64_t partkey = SkewedInt(rng, zipf100, 1, 100);
        // Mix skewed popular parts with uniform tail.
        if (rng.NextBool(0.5)) {
          partkey = rng.NextInt(1, static_cast<int64_t>(sizes.part));
        }
        // Suppliers of this part in partsupp share its residue classes.
        uint64_t which = rng.NextRange(4);
        int64_t suppkey = static_cast<int64_t>(
            1 + (static_cast<uint64_t>(partkey) +
                 which * (sizes.supplier / 4 + 1)) %
                    sizes.supplier);
        row->assign({
            Value(static_cast<int64_t>(r / 4 + 1)),
            Value(partkey),
            Value(suppkey),
            Value(SkewedInt(rng, zipf50, 1, 50)),
            Value(SkewedNumeric(rng, zipf100, 900, 105000)),
            Value(rng.NextInt(0, 10) / 100.0),
        });
      })));

  const auto& prepared =
      options.prepare_skewed_fields ? IndexedColumns() : KeyColumns();
  if (options.build_indexes) {
    for (const auto& [table, column] : prepared) {
      SQP_RETURN_IF_ERROR(db->CreateIndex(table, column));
    }
  }
  if (options.build_histograms) {
    for (const auto& [table, column] : prepared) {
      SQP_RETURN_IF_ERROR(db->CreateHistogram(table, column));
    }
  }
  return Status::OK();
}

uint64_t DatasetPages(const Database& db) {
  uint64_t pages = 0;
  for (const auto& table : TableNames()) {
    const TableInfo* info = db.catalog().GetTable(table);
    if (info != nullptr) pages += info->stats.page_count();
  }
  return pages;
}

}  // namespace tpch
}  // namespace sqp
