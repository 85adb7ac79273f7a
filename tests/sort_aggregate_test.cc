// Sort, aggregation, limit — and the extended SQL
// surface (GROUP BY / ORDER BY / LIMIT / aggregates) through
// Database::ExecuteSql, including speculation compatibility.
#include <gtest/gtest.h>

#include <memory>

#include "exec/aggregate.h"
#include "exec/sort.h"
#include "test_util.h"

namespace sqp {
namespace {

using testutil::RsJoin;
using testutil::Sel;

class SortAggTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_.reset(testutil::MakeTwoTableDb(400, 1200, /*seed=*/8));
    r_ = db_->catalog().GetTable("r");
  }

  std::unique_ptr<SeqScanExecutor> ScanR() {
    return std::make_unique<SeqScanExecutor>(r_, &db_->buffer_pool(),
                                             &db_->meter());
  }

  std::unique_ptr<Database> db_;
  TableInfo* r_ = nullptr;
};

// ------------------------------------------------------------------ Sort

TEST_F(SortAggTest, SortAscendingAndDescending) {
  SortExecutor asc(ScanR(), {SortKey{1, false}}, &db_->meter());
  auto rows = DrainExecutor(&asc);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 400u);
  for (size_t i = 1; i < rows->size(); i++) {
    EXPECT_LE((*rows)[i - 1][1].AsInt64(), (*rows)[i][1].AsInt64());
  }

  SortExecutor desc(ScanR(), {SortKey{1, true}}, &db_->meter());
  rows = DrainExecutor(&desc);
  ASSERT_TRUE(rows.ok());
  for (size_t i = 1; i < rows->size(); i++) {
    EXPECT_GE((*rows)[i - 1][1].AsInt64(), (*rows)[i][1].AsInt64());
  }
}

TEST_F(SortAggTest, MultiKeySortTieBreaks) {
  SortExecutor sort(ScanR(), {SortKey{1, false}, SortKey{2, true}},
                    &db_->meter());
  auto rows = DrainExecutor(&sort);
  ASSERT_TRUE(rows.ok());
  for (size_t i = 1; i < rows->size(); i++) {
    int64_t a0 = (*rows)[i - 1][1].AsInt64(), a1 = (*rows)[i][1].AsInt64();
    ASSERT_LE(a0, a1);
    if (a0 == a1) {
      EXPECT_GE((*rows)[i - 1][2].AsDouble(), (*rows)[i][2].AsDouble());
    }
  }
}

TEST_F(SortAggTest, SmallSortStaysInMemory) {
  SortExecutor sort(ScanR(), {SortKey{0, false}}, &db_->meter());
  ASSERT_TRUE(DrainExecutor(&sort).ok());
  EXPECT_FALSE(sort.spilled());
}

TEST_F(SortAggTest, LargeSortChargesSpillIo) {
  // Shrink the memory budget so even this table spills.
  DatabaseOptions options;
  options.cost.hash_join_memory_pages = 1;
  Database tiny_mem(options);
  Schema schema({{"x", TypeId::kInt64}, {"pad", TypeId::kString}});
  ASSERT_TRUE(tiny_mem.CreateTable("t", schema).ok());
  std::vector<Tuple> rows;
  for (int i = 0; i < 2000; i++) {
    rows.push_back(Tuple{Value(int64_t{i % 97}),
                         Value(std::string(50, 'x'))});
  }
  ASSERT_TRUE(tiny_mem.BulkLoad("t", rows).ok());
  TableInfo* t = tiny_mem.catalog().GetTable("t");

  uint64_t writes_before = tiny_mem.meter().blocks_written();
  auto scan = std::make_unique<SeqScanExecutor>(t, &tiny_mem.buffer_pool(),
                                                &tiny_mem.meter());
  SortExecutor sort(std::move(scan), {SortKey{0, false}},
                    &tiny_mem.meter());
  ASSERT_TRUE(DrainExecutor(&sort).ok());
  EXPECT_TRUE(sort.spilled());
  EXPECT_GT(tiny_mem.meter().blocks_written(), writes_before);
}

// -------------------------------------------------------------- Aggregate

TEST_F(SortAggTest, GlobalAggregates) {
  std::vector<AggSpec> specs = {
      {AggFunc::kCount, AggSpec::kStar, "count(*)"},
      {AggFunc::kSum, 1, "sum(r_a)"},
      {AggFunc::kAvg, 1, "avg(r_a)"},
      {AggFunc::kMin, 1, "min(r_a)"},
      {AggFunc::kMax, 1, "max(r_a)"},
  };
  HashAggregateExecutor agg(ScanR(), {}, specs, &db_->meter());
  auto rows = DrainExecutor(&agg);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 1u);
  const Tuple& t = (*rows)[0];
  EXPECT_EQ(t[0].AsInt64(), 400);
  double sum = t[1].AsDouble();
  EXPECT_NEAR(t[2].AsDouble(), sum / 400, 1e-9);
  EXPECT_GE(t[3].AsInt64(), 0);
  EXPECT_LE(t[4].AsInt64(), 99);
  EXPECT_LE(t[3], t[4]);
}

TEST_F(SortAggTest, GroupByCountsMatchReference) {
  std::vector<AggSpec> specs = {{AggFunc::kCount, AggSpec::kStar,
                                 "count(*)"}};
  HashAggregateExecutor agg(ScanR(), {3}, specs, &db_->meter());
  auto rows = DrainExecutor(&agg);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 3u);  // alpha / beta / gamma
  int64_t total = 0;
  for (const auto& row : *rows) total += row[1].AsInt64();
  EXPECT_EQ(total, 400);
}

TEST_F(SortAggTest, GlobalAggregateOverEmptyInput) {
  Schema schema({{"e", TypeId::kInt64}});
  ASSERT_TRUE(db_->CreateTable("empty", schema).ok());
  TableInfo* e = db_->catalog().GetTable("empty");
  auto scan = std::make_unique<SeqScanExecutor>(e, &db_->buffer_pool(),
                                                &db_->meter());
  std::vector<AggSpec> specs = {{AggFunc::kCount, AggSpec::kStar,
                                 "count(*)"}};
  HashAggregateExecutor agg(std::move(scan), {}, specs, &db_->meter());
  auto rows = DrainExecutor(&agg);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_EQ((*rows)[0][0].AsInt64(), 0);
}

TEST_F(SortAggTest, LimitStopsEarly) {
  LimitExecutor limit(ScanR(), 7);
  auto rows = DrainExecutor(&limit);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 7u);
  LimitExecutor zero(ScanR(), 0);
  rows = DrainExecutor(&zero);
  ASSERT_TRUE(rows.ok());
  EXPECT_TRUE(rows->empty());
}

// ------------------------------------------------------------ SQL surface

TEST_F(SortAggTest, SqlAggregateQuery) {
  ExecuteOptions opts;
  opts.keep_rows = true;
  auto result = db_->ExecuteSql(
      "SELECT r_s, COUNT(*), AVG(r_a) FROM r GROUP BY r_s ORDER BY r_s",
      opts);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->row_count, 3u);
  ASSERT_EQ(result->schema.size(), 3u);
  EXPECT_EQ(result->schema.column(1).name, "count(*)");
  EXPECT_EQ(result->rows[0][0].AsString(), "alpha");
  EXPECT_EQ(result->rows[1][0].AsString(), "beta");
  int64_t total = 0;
  for (const auto& row : result->rows) total += row[1].AsInt64();
  EXPECT_EQ(total, 400);
}

TEST_F(SortAggTest, SqlOrderByLimit) {
  ExecuteOptions opts;
  opts.keep_rows = true;
  auto result = db_->ExecuteSql(
      "SELECT * FROM r ORDER BY r_a DESC LIMIT 5", opts);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->row_count, 5u);
  for (size_t i = 1; i < result->rows.size(); i++) {
    EXPECT_GE(result->rows[i - 1][1].AsInt64(),
              result->rows[i][1].AsInt64());
  }
}

TEST_F(SortAggTest, SqlAggregateOverJoinUsesSpeculativeView) {
  QueryGraph def;
  def.AddJoin(RsJoin());
  def.AddSelection(Sel("r", "r_a", CompareOp::kLt, Value(int64_t{10})));
  ASSERT_TRUE(db_->Materialize(def, "v").ok());

  ExecuteOptions opts;
  opts.keep_rows = true;
  opts.view_mode = ViewMode::kForced;
  auto result = db_->ExecuteSql(
      "SELECT COUNT(*), SUM(s_c) FROM r, s WHERE r_id = s_rid AND "
      "r_a < 10",
      opts);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_FALSE(result->views_used.empty());  // SPJ core was rewritten

  opts.view_mode = ViewMode::kNone;
  auto base = db_->ExecuteSql(
      "SELECT COUNT(*), SUM(s_c) FROM r, s WHERE r_id = s_rid AND "
      "r_a < 10",
      opts);
  ASSERT_TRUE(base.ok());
  EXPECT_EQ(result->rows[0][0], base->rows[0][0]);
  EXPECT_EQ(result->rows[0][1], base->rows[0][1]);
}

TEST_F(SortAggTest, SqlValidation) {
  // Plain column not in GROUP BY.
  EXPECT_FALSE(
      db_->ExecuteSql("SELECT r_s, COUNT(*) FROM r GROUP BY r_a").ok());
  // SUM(*) is invalid.
  EXPECT_FALSE(db_->ExecuteSql("SELECT SUM(*) FROM r").ok());
  // Unknown ORDER BY column.
  EXPECT_FALSE(db_->ExecuteSql("SELECT * FROM r ORDER BY nope").ok());
  // LIMIT requires an integer.
  EXPECT_FALSE(db_->ExecuteSql("SELECT * FROM r LIMIT 1.5").ok());
  // Plain SPJ statements still work through ExecuteSql.
  EXPECT_TRUE(db_->ExecuteSql("SELECT r_a FROM r WHERE r_a < 5").ok());
}

}  // namespace
}  // namespace sqp
