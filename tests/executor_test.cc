// Executors: each operator against hand-computed or brute-force
// reference results.
#include "exec/executors.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>

#include "common/rng.h"
#include "exec/materializer.h"
#include "test_util.h"

namespace sqp {
namespace {

using testutil::Sel;

class ExecutorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_.reset(testutil::MakeTwoTableDb(300, 900, /*seed=*/3));
    r_ = db_->catalog().GetTable("r");
    s_ = db_->catalog().GetTable("s");
    ASSERT_NE(r_, nullptr);
    ASSERT_NE(s_, nullptr);
  }

  std::vector<Tuple> AllRows(const TableInfo* table) {
    std::vector<Tuple> rows;
    auto iter = table->heap->Scan();
    for (;;) {
      auto row = iter.Next();
      EXPECT_TRUE(row.ok());
      if (!row->has_value()) break;
      rows.push_back(**row);
    }
    return rows;
  }

  std::unique_ptr<Database> db_;
  TableInfo* r_ = nullptr;
  TableInfo* s_ = nullptr;
};

TEST_F(ExecutorTest, SeqScanReturnsEverything) {
  SeqScanExecutor scan(r_, &db_->buffer_pool(), &db_->meter());
  auto rows = DrainExecutor(&scan);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 300u);
}

TEST_F(ExecutorTest, SeqScanWithPushedPredicate) {
  auto pred = BindSelection(Sel("r", "r_a", CompareOp::kLt, Value(int64_t{50})),
                            r_->schema);
  ASSERT_TRUE(pred.ok());
  SeqScanExecutor scan(r_, &db_->buffer_pool(), &db_->meter(), {*pred});
  auto rows = DrainExecutor(&scan);
  ASSERT_TRUE(rows.ok());
  size_t expected = 0;
  for (const auto& t : AllRows(r_)) {
    if (t[1].AsInt64() < 50) expected++;
  }
  EXPECT_EQ(rows->size(), expected);
  EXPECT_GT(rows->size(), 0u);
  EXPECT_LT(rows->size(), 300u);
}

TEST_F(ExecutorTest, IndexScanMatchesSeqScanFilter) {
  ASSERT_TRUE(db_->CreateIndex("r", "r_a").ok());
  BPlusTree* index = db_->catalog().GetIndex("r", "r_a");
  ASSERT_NE(index, nullptr);

  KeyRange range{Value(int64_t{20}), true, Value(int64_t{40}), false};
  IndexScanExecutor scan(r_, index, range, &db_->buffer_pool(),
                         &db_->meter());
  auto rows = DrainExecutor(&scan);
  ASSERT_TRUE(rows.ok());

  size_t expected = 0;
  for (const auto& t : AllRows(r_)) {
    int64_t v = t[1].AsInt64();
    if (v >= 20 && v < 40) expected++;
  }
  EXPECT_EQ(rows->size(), expected);
}

TEST_F(ExecutorTest, IndexScanWithResidualPredicate) {
  ASSERT_TRUE(db_->CreateIndex("r", "r_a").ok());
  BPlusTree* index = db_->catalog().GetIndex("r", "r_a");
  auto residual = BindSelection(Sel("r", "r_b", CompareOp::kLt, Value(500.0)),
                                r_->schema);
  ASSERT_TRUE(residual.ok());
  IndexScanExecutor scan(r_, index, KeyRange::Exactly(Value(int64_t{10})),
                         &db_->buffer_pool(), &db_->meter(), {*residual});
  auto rows = DrainExecutor(&scan);
  ASSERT_TRUE(rows.ok());
  for (const auto& t : *rows) {
    EXPECT_EQ(t[1].AsInt64(), 10);
    EXPECT_LT(t[2].AsDouble(), 500.0);
  }
}

TEST_F(ExecutorTest, FilterExecutor) {
  auto pred = BindSelection(Sel("r", "r_s", CompareOp::kEq, Value("alpha")),
                            r_->schema);
  ASSERT_TRUE(pred.ok());
  auto scan = std::make_unique<SeqScanExecutor>(r_, &db_->buffer_pool(),
                                                &db_->meter());
  FilterExecutor filter(std::move(scan), {*pred}, &db_->meter());
  auto rows = DrainExecutor(&filter);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 100u);  // 300 rows cycling 3 strings
  for (const auto& t : *rows) EXPECT_EQ(t[3].AsString(), "alpha");
}

TEST_F(ExecutorTest, ProjectExecutor) {
  auto scan = std::make_unique<SeqScanExecutor>(r_, &db_->buffer_pool(),
                                                &db_->meter());
  ProjectExecutor project(std::move(scan), {1, 3}, &db_->meter());
  EXPECT_EQ(project.output_schema().size(), 2u);
  EXPECT_EQ(project.output_schema().column(0).name, "r_a");
  auto rows = DrainExecutor(&project);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 300u);
  EXPECT_EQ((*rows)[0].size(), 2u);
}

TEST_F(ExecutorTest, HashJoinMatchesBruteForce) {
  auto r_scan = std::make_unique<SeqScanExecutor>(r_, &db_->buffer_pool(),
                                                  &db_->meter());
  auto s_scan = std::make_unique<SeqScanExecutor>(s_, &db_->buffer_pool(),
                                                  &db_->meter());
  // r.r_id (idx 0) = s.s_rid (idx 1)
  HashJoinExecutor join(std::move(r_scan), std::move(s_scan), 0, 1,
                        &db_->meter());
  EXPECT_EQ(join.output_schema().size(), 7u);
  auto rows = DrainExecutor(&join);
  ASSERT_TRUE(rows.ok());

  size_t expected = 0;
  auto r_rows = AllRows(r_);
  auto s_rows = AllRows(s_);
  for (const auto& a : r_rows) {
    for (const auto& b : s_rows) {
      if (a[0] == b[1]) expected++;
    }
  }
  EXPECT_EQ(rows->size(), expected);
  EXPECT_EQ(expected, 900u);  // every s row matches exactly one r
  for (const auto& t : *rows) EXPECT_EQ(t[0], t[5]);  // join key equal
}

// Emission order on a many-to-many key (r.r_a = s.s_c), pinned against
// a nested-loop reference over the heap iterator's rows: for each probe
// row in scan order, its matching build rows in build order. Every
// driving interface and batch size must produce exactly that sequence.
TEST_F(ExecutorTest, HashJoinEmitsProbeOrderThenBuildOrder) {
  constexpr size_t kRA = 1;  // r.r_a (build key)
  constexpr size_t kSC = 2;  // s.s_c (probe key)
  std::vector<Tuple> expected;
  const auto r_rows = AllRows(r_);
  const auto s_rows = AllRows(s_);
  for (const Tuple& probe : s_rows) {
    for (const Tuple& build : r_rows) {
      if (!(build[kRA] == probe[kSC])) continue;
      Tuple row = build;
      row.insert(row.end(), probe.begin(), probe.end());
      expected.push_back(std::move(row));
    }
  }
  // Many-to-many: more output rows than either input has rows.
  ASSERT_GT(expected.size(), s_rows.size());
  ASSERT_GT(expected.size(), r_rows.size());

  auto make_join = [&] {
    return std::make_unique<HashJoinExecutor>(
        std::make_unique<SeqScanExecutor>(r_, &db_->buffer_pool(),
                                          &db_->meter()),
        std::make_unique<SeqScanExecutor>(s_, &db_->buffer_pool(),
                                          &db_->meter()),
        kRA, kSC, &db_->meter());
  };
  auto expect_same = [&](const std::vector<Tuple>& got,
                         const std::string& how) {
    ASSERT_EQ(got.size(), expected.size()) << how;
    for (size_t i = 0; i < got.size(); i++) {
      ASSERT_EQ(got[i].size(), expected[i].size()) << how << " row " << i;
      for (size_t c = 0; c < got[i].size(); c++) {
        ASSERT_TRUE(got[i][c] == expected[i][c])
            << how << " row " << i << " col " << c << ": "
            << got[i][c].ToString() << " vs " << expected[i][c].ToString();
      }
    }
  };

  for (size_t batch_size : {size_t{1}, size_t{7}, kDefaultExecBatchSize}) {
    auto join = make_join();
    auto rows = DrainExecutor(join.get(), batch_size);
    ASSERT_TRUE(rows.ok());
    expect_same(*rows, "NextBatch(" + std::to_string(batch_size) + ")");
  }

  auto join = make_join();
  ASSERT_TRUE(join->Init().ok());
  std::vector<Tuple> tuples;
  for (;;) {
    auto row = join->Next();
    ASSERT_TRUE(row.ok());
    if (!row->has_value()) break;
    tuples.push_back(std::move(**row));
  }
  expect_same(tuples, "Next()");
}

TEST_F(ExecutorTest, HashJoinEmptySides) {
  Schema empty_schema({{"e", TypeId::kInt64}});
  ASSERT_TRUE(db_->CreateTable("empty", empty_schema).ok());
  TableInfo* empty = db_->catalog().GetTable("empty");

  auto e1 = std::make_unique<SeqScanExecutor>(empty, &db_->buffer_pool(),
                                              &db_->meter());
  auto r1 = std::make_unique<SeqScanExecutor>(r_, &db_->buffer_pool(),
                                              &db_->meter());
  HashJoinExecutor join(std::move(e1), std::move(r1), 0, 0, &db_->meter());
  auto rows = DrainExecutor(&join);
  ASSERT_TRUE(rows.ok());
  EXPECT_TRUE(rows->empty());
}

TEST_F(ExecutorTest, NestedLoopCrossProduct) {
  Schema tiny({{"t_x", TypeId::kInt64}});
  ASSERT_TRUE(db_->CreateTable("tiny", tiny).ok());
  std::vector<Tuple> rows = {Tuple{Value(int64_t{1})},
                             Tuple{Value(int64_t{2})}};
  ASSERT_TRUE(db_->BulkLoad("tiny", rows).ok());
  TableInfo* t = db_->catalog().GetTable("tiny");

  auto t_scan = std::make_unique<SeqScanExecutor>(t, &db_->buffer_pool(),
                                                  &db_->meter());
  auto r_scan = std::make_unique<SeqScanExecutor>(r_, &db_->buffer_pool(),
                                                  &db_->meter());
  NestedLoopJoinExecutor cross(std::move(t_scan), std::move(r_scan), {},
                               &db_->meter());
  auto out = DrainExecutor(&cross);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->size(), 600u);  // 2 x 300
}

TEST_F(ExecutorTest, ColumnFilterAppliesCondition) {
  // Join r x s then require r_id == s_rid via ColumnFilter on a cross
  // product — must equal the hash join result count.
  auto r_scan = std::make_unique<SeqScanExecutor>(r_, &db_->buffer_pool(),
                                                  &db_->meter());
  auto s_scan = std::make_unique<SeqScanExecutor>(s_, &db_->buffer_pool(),
                                                  &db_->meter());
  auto cross = std::make_unique<NestedLoopJoinExecutor>(
      std::move(r_scan), std::move(s_scan),
      std::vector<NestedLoopJoinExecutor::JoinCondition>{}, &db_->meter());
  ColumnFilterExecutor filter(
      std::move(cross), {ColumnFilterExecutor::Condition{0, 5, CompareOp::kEq}},
      &db_->meter());
  auto rows = DrainExecutor(&filter);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 900u);
}

TEST_F(ExecutorTest, MaterializerCreatesTableWithStats) {
  auto pred = BindSelection(Sel("r", "r_a", CompareOp::kLt, Value(int64_t{30})),
                            r_->schema);
  ASSERT_TRUE(pred.ok());
  SeqScanExecutor scan(r_, &db_->buffer_pool(), &db_->meter(), {*pred});
  auto table = MaterializeInto(&db_->catalog(), &db_->buffer_pool(),
                               &db_->meter(), &scan, "r_small");
  ASSERT_TRUE(table.ok());
  EXPECT_TRUE((*table)->is_materialized);
  EXPECT_GT((*table)->stats.row_count(), 0u);
  EXPECT_LT((*table)->stats.row_count(), 300u);
  EXPECT_EQ((*table)->schema.size(), r_->schema.size());
  // Stats populated: max r_a below the predicate constant.
  auto idx = (*table)->schema.ColumnIndex("r_a");
  ASSERT_TRUE(idx.has_value());
  EXPECT_LT((*table)->stats.column(*idx).max->AsInt64(), 30);
}

TEST_F(ExecutorTest, MaterializerRejectsDuplicateName) {
  SeqScanExecutor scan(r_, &db_->buffer_pool(), &db_->meter());
  auto first = MaterializeInto(&db_->catalog(), &db_->buffer_pool(),
                               &db_->meter(), &scan, "dup");
  ASSERT_TRUE(first.ok());
  SeqScanExecutor scan2(r_, &db_->buffer_pool(), &db_->meter());
  auto second = MaterializeInto(&db_->catalog(), &db_->buffer_pool(),
                                &db_->meter(), &scan2, "dup");
  EXPECT_FALSE(second.ok());
}

TEST_F(ExecutorTest, ExecutorsChargeCpuWork) {
  uint64_t before = db_->meter().tuples_processed();
  SeqScanExecutor scan(r_, &db_->buffer_pool(), &db_->meter());
  ASSERT_TRUE(DrainExecutor(&scan).ok());
  EXPECT_GE(db_->meter().tuples_processed() - before, 300u);
}

}  // namespace
}  // namespace sqp
