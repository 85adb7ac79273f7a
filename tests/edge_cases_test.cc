// Edge cases across modules: binding failures, planner limits, empty
// inputs, logging plumbing.
#include <gtest/gtest.h>

#include <memory>

#include "common/logging.h"
#include "exec/expression.h"
#include "optimizer/planner.h"
#include "test_util.h"

namespace sqp {
namespace {

using testutil::Sel;

TEST(ExpressionTest, EmptyConjunctionIsTrue) {
  EXPECT_TRUE(EvalConjunction({}, Tuple{Value(int64_t{1})}));
}

TEST(ExpressionTest, BindSelectionResolvesIndex) {
  Schema schema({{"a", TypeId::kInt64}, {"b", TypeId::kDouble}});
  auto bound =
      BindSelection(Sel("t", "b", CompareOp::kGt, Value(1.5)), schema);
  ASSERT_TRUE(bound.ok());
  EXPECT_EQ(bound->column_index, 1u);
  EXPECT_TRUE(bound->Eval(Tuple{Value(int64_t{0}), Value(2.0)}));
  EXPECT_FALSE(bound->Eval(Tuple{Value(int64_t{0}), Value(1.0)}));
}

TEST(ExpressionTest, BindSelectionUnknownColumnFails) {
  Schema schema({{"a", TypeId::kInt64}});
  auto bound =
      BindSelection(Sel("t", "zzz", CompareOp::kGt, Value(1.5)), schema);
  EXPECT_FALSE(bound.ok());
  // Batch binding propagates the first failure.
  auto batch = BindSelections({Sel("t", "a", CompareOp::kEq, Value(int64_t{1})),
                               Sel("t", "zzz", CompareOp::kEq,
                                   Value(int64_t{1}))},
                              schema);
  EXPECT_FALSE(batch.ok());
}

TEST(ExpressionTest, AllCompareOpsEvaluate) {
  Schema schema({{"a", TypeId::kInt64}});
  Tuple three{Value(int64_t{3})};
  struct Case {
    CompareOp op;
    int64_t constant;
    bool expect;
  } cases[] = {
      {CompareOp::kEq, 3, true},  {CompareOp::kEq, 4, false},
      {CompareOp::kNe, 3, false}, {CompareOp::kNe, 4, true},
      {CompareOp::kLt, 4, true},  {CompareOp::kLt, 3, false},
      {CompareOp::kLe, 3, true},  {CompareOp::kLe, 2, false},
      {CompareOp::kGt, 2, true},  {CompareOp::kGt, 3, false},
      {CompareOp::kGe, 3, true},  {CompareOp::kGe, 4, false},
  };
  for (const auto& c : cases) {
    auto bound =
        BindSelection(Sel("t", "a", c.op, Value(c.constant)), schema);
    ASSERT_TRUE(bound.ok());
    EXPECT_EQ(bound->Eval(three), c.expect)
        << CompareOpName(c.op) << " " << c.constant;
  }
}

TEST(PlannerEdgeTest, EmptyQueryIsAnError) {
  std::unique_ptr<Database> db(testutil::MakeTwoTableDb(10, 10));
  EXPECT_FALSE(db->planner().Plan(QueryGraph()).ok());
  EXPECT_FALSE(db->Execute(QueryGraph()).ok());
}

TEST(PlannerEdgeTest, ManyRelationCrossProductStillPlans) {
  // A dozen tiny relations with no joins: the DP's cross-product
  // fallback must cover them all.
  DatabaseOptions options;
  Database db(options);
  QueryGraph q;
  for (int i = 0; i < 12; i++) {
    std::string name = "t";
    name += std::to_string(i);
    std::string column = "c";
    column += std::to_string(i);
    Schema schema({{column, TypeId::kInt64}});
    ASSERT_TRUE(db.CreateTable(name, schema).ok());
    ASSERT_TRUE(db.BulkLoad(name, {Tuple{Value(int64_t{i})}}).ok());
    q.AddRelation(name);
  }
  auto result = db.Execute(q);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->row_count, 1u);  // 1-row cross product of 12 tables

  // Beyond 16 scan units the planner refuses (documented limit).
  for (int i = 12; i < 17; i++) {
    std::string name = "t";
    name += std::to_string(i);
    std::string column = "c";
    column += std::to_string(i);
    Schema schema({{column, TypeId::kInt64}});
    ASSERT_TRUE(db.CreateTable(name, schema).ok());
    q.AddRelation(name);
  }
  EXPECT_FALSE(db.planner().Plan(q).ok());
}

TEST(PlannerEdgeTest, EmptyTablePlansAndExecutes) {
  std::unique_ptr<Database> db(testutil::MakeTwoTableDb(100, 100));
  Schema schema({{"v", TypeId::kInt64}});
  ASSERT_TRUE(db->CreateTable("void", schema).ok());
  QueryGraph q;
  q.AddRelation("void");
  auto result = db->Execute(q);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->row_count, 0u);
}

TEST(LoggingTest, LevelGatesMessages) {
  LogLevel before = GetLogLevel();
  SetLogLevel(LogLevel::kOff);
  SQP_LOG_ERROR << "this must not crash even when gated";
  SetLogLevel(LogLevel::kError);
  SQP_LOG_DEBUG << "below threshold";
  SetLogLevel(before);
  SUCCEED();
}

TEST(MaterializeEdgeTest, MaterializingEmptyResultWorks) {
  std::unique_ptr<Database> db(testutil::MakeTwoTableDb(100, 100));
  QueryGraph q;
  q.AddSelection(Sel("r", "r_a", CompareOp::kLt, Value(int64_t{-1})));
  auto mat = db->Materialize(q, "empty_view");
  ASSERT_TRUE(mat.ok());
  EXPECT_EQ(mat->row_count, 0u);
  // The empty view still rewrites correctly (to an empty scan).
  ExecuteOptions opts;
  opts.view_mode = ViewMode::kForced;
  auto result = db->Execute(q, opts);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->row_count, 0u);
}

}  // namespace
}  // namespace sqp
