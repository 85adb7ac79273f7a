// TPC-H subset workload: schema wiring, generator skew, FK integrity,
// scale factors, quantile inversion.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>

#include "workload/datagen.h"
#include "workload/tpch.h"

namespace sqp {
namespace tpch {
namespace {

TEST(TpchSchemaTest, SixTablesWithExpectedColumns) {
  ASSERT_EQ(TableNames().size(), 6u);
  for (const auto& table : TableNames()) {
    Schema schema = SchemaFor(table);
    EXPECT_GT(schema.size(), 2u) << table;
  }
  EXPECT_TRUE(SchemaFor("lineitem").HasColumn("l_orderkey"));
  EXPECT_TRUE(SchemaFor("orders").HasColumn("o_custkey"));
  EXPECT_TRUE(SchemaFor("part").HasColumn("p_mfgr"));
}

TEST(TpchSchemaTest, ColumnNamesGloballyUnique) {
  std::set<std::string> names;
  for (const auto& table : TableNames()) {
    Schema schema = SchemaFor(table);
    for (const auto& col : schema.columns()) {
      EXPECT_TRUE(names.insert(col.name).second) << col.name;
    }
  }
}

TEST(TpchSchemaTest, JoinTemplatesReferenceRealColumns) {
  for (const auto& tmpl : FkJoinTemplates()) {
    EXPECT_FALSE(tmpl.edges.empty());
    for (const auto& edge : tmpl.edges) {
      EXPECT_TRUE(SchemaFor(edge.left_table).HasColumn(edge.left_column))
          << tmpl.name;
      EXPECT_TRUE(SchemaFor(edge.right_table).HasColumn(edge.right_column))
          << tmpl.name;
    }
  }
  // The composite lineitem-partsupp template has two edges.
  bool found_composite = false;
  for (const auto& tmpl : FkJoinTemplates()) {
    if (tmpl.edges.size() == 2) found_composite = true;
  }
  EXPECT_TRUE(found_composite);
}

TEST(TpchSchemaTest, SelectionColumnsResolve) {
  for (const auto& col : SelectionColumns()) {
    Schema schema = SchemaFor(col.table);
    auto idx = schema.ColumnIndex(col.column);
    ASSERT_TRUE(idx.has_value()) << col.column;
    EXPECT_EQ(schema.column(*idx).type, col.type) << col.column;
    if (col.type == TypeId::kString) {
      EXPECT_FALSE(col.string_values.empty());
    } else {
      EXPECT_LT(col.lo, col.hi);
    }
  }
}

TEST(TpchSchemaTest, ScalesGrowProportionally) {
  TableSizes s = SizesForScale(Scale::kSmall);
  TableSizes m = SizesForScale(Scale::kMedium);
  TableSizes l = SizesForScale(Scale::kLarge);
  EXPECT_EQ(m.lineitem, 5 * s.lineitem);
  EXPECT_EQ(l.lineitem, 10 * s.lineitem);
  EXPECT_EQ(s.partsupp, 4 * s.part);
  EXPECT_EQ(s.lineitem, 4 * s.orders);
}

TEST(TpchQuantileTest, MonotoneAndBoundedInversion) {
  for (const auto& col : SelectionColumns()) {
    if (col.type == TypeId::kString) continue;
    double prev = col.lo - 1;
    for (double p : {0.05, 0.25, 0.5, 0.75, 0.95}) {
      double q = ColumnQuantile(col, p);
      EXPECT_GE(q, col.lo) << col.column;
      EXPECT_LE(q, col.hi) << col.column;
      EXPECT_GE(q, prev) << col.column << " p=" << p;
      prev = q;
    }
  }
}

TEST(TpchQuantileTest, ZipfQuantilesFrontLoaded) {
  // Under skew, half the mass sits in a small prefix of the domain.
  const SelectionColumn* quantity = nullptr;
  for (const auto& col : SelectionColumns()) {
    if (col.column == "l_quantity") quantity = &col;
  }
  ASSERT_NE(quantity, nullptr);
  double median = ColumnQuantile(*quantity, 0.5);
  double mid = (quantity->lo + quantity->hi) / 2;
  EXPECT_LT(median, mid);
}

class TpchDataTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    DatabaseOptions options;
    options.buffer_pool_pages = 2048;
    db_ = new Database(options);
    LoadOptions load;
    load.scale = Scale::kSmall;
    load.seed = 99;
    ASSERT_TRUE(LoadTpch(db_, load).ok());
  }
  static void TearDownTestSuite() {
    delete db_;
    db_ = nullptr;
  }

  static std::vector<Tuple> AllRows(const std::string& table) {
    std::vector<Tuple> rows;
    auto iter = db_->catalog().GetTable(table)->heap->Scan();
    for (;;) {
      auto more = iter.NextPage(&rows);
      EXPECT_TRUE(more.ok());
      if (!more.ok() || !*more) break;
    }
    return rows;
  }

  static Database* db_;
};

Database* TpchDataTest::db_ = nullptr;

TEST_F(TpchDataTest, RowCountsMatchScale) {
  TableSizes sizes = SizesForScale(Scale::kSmall);
  EXPECT_EQ(db_->catalog().GetTable("part")->stats.row_count(), sizes.part);
  EXPECT_EQ(db_->catalog().GetTable("lineitem")->stats.row_count(),
            sizes.lineitem);
  EXPECT_EQ(db_->catalog().GetTable("orders")->stats.row_count(),
            sizes.orders);
}

TEST_F(TpchDataTest, ForeignKeysResolve) {
  TableSizes sizes = SizesForScale(Scale::kSmall);
  auto orders = AllRows("orders");
  for (const auto& row : orders) {
    int64_t cust = row[1].AsInt64();
    ASSERT_GE(cust, 1);
    ASSERT_LE(cust, static_cast<int64_t>(sizes.customer));
  }
  // Every lineitem (partkey, suppkey) pair exists in partsupp.
  std::set<std::pair<int64_t, int64_t>> ps_pairs;
  for (const auto& row : AllRows("partsupp")) {
    ps_pairs.insert({row[0].AsInt64(), row[1].AsInt64()});
  }
  size_t checked = 0;
  for (const auto& row : AllRows("lineitem")) {
    if (checked++ > 5000) break;
    ASSERT_TRUE(ps_pairs.count({row[1].AsInt64(), row[2].AsInt64()}))
        << row[1].AsInt64() << "," << row[2].AsInt64();
  }
}

TEST_F(TpchDataTest, SkewedFieldsAreSkewed) {
  std::map<int64_t, size_t> counts;
  for (const auto& row : AllRows("lineitem")) {
    counts[row[3].AsInt64()]++;  // l_quantity
  }
  // The most popular value must dominate the median-popular one by far.
  std::vector<size_t> freq;
  for (auto& [v, c] : counts) freq.push_back(c);
  std::sort(freq.rbegin(), freq.rend());
  ASSERT_GT(freq.size(), 10u);
  EXPECT_GT(freq[0], 4 * freq[freq.size() / 2]);
}

TEST_F(TpchDataTest, SkewedIntCoversDomain) {
  int64_t max_qty = 0;
  for (const auto& row : AllRows("partsupp")) {
    max_qty = std::max(max_qty, row[2].AsInt64());  // ps_availqty
  }
  EXPECT_GT(max_qty, 5000);  // domain [1, 10000] actually covered
}

TEST_F(TpchDataTest, IndexesAndHistogramsPrepared) {
  for (const auto& [table, column] : IndexedColumns()) {
    EXPECT_TRUE(db_->catalog().HasIndex(table, column))
        << table << "." << column;
    EXPECT_NE(db_->catalog().GetHistogram(table, column), nullptr)
        << table << "." << column;
  }
}

TEST_F(TpchDataTest, QuantileInversionMatchesData) {
  // The analytic quantile must approximate the empirical one.
  const SelectionColumn* date = nullptr;
  for (const auto& col : SelectionColumns()) {
    if (col.column == "o_orderdate") date = &col;
  }
  ASSERT_NE(date, nullptr);
  std::vector<int64_t> values;
  for (const auto& row : AllRows("orders")) {
    values.push_back(row[3].AsInt64());
  }
  std::sort(values.begin(), values.end());
  for (double p : {0.25, 0.5, 0.75}) {
    double analytic = ColumnQuantile(*date, p);
    double empirical =
        static_cast<double>(values[static_cast<size_t>(p * values.size())]);
    double span = date->hi - date->lo;
    EXPECT_NEAR(analytic, empirical, span * 0.08) << "p=" << p;
  }
}

TEST_F(TpchDataTest, DeterministicInSeed) {
  DatabaseOptions options;
  options.buffer_pool_pages = 2048;
  Database other(options);
  LoadOptions load;
  load.scale = Scale::kSmall;
  load.seed = 99;
  ASSERT_TRUE(LoadTpch(&other, load).ok());
  auto a = db_->catalog().GetTable("part")->stats;
  auto b = other.catalog().GetTable("part")->stats;
  EXPECT_EQ(a.row_count(), b.row_count());
  EXPECT_EQ(a.column(1).max->AsInt64(), b.column(1).max->AsInt64());
  EXPECT_EQ(a.column(1).distinct_count, b.column(1).distinct_count);
}

TEST_F(TpchDataTest, DatasetPagesReported) {
  EXPECT_GT(DatasetPages(*db_), 300u);
}

}  // namespace
}  // namespace tpch
}  // namespace sqp
