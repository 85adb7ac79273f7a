// Database facade: DDL, execution, materialization, timing, cold start.
#include "db/database.h"

#include <gtest/gtest.h>

#include <memory>

#include "test_util.h"

namespace sqp {
namespace {

using testutil::RsJoin;
using testutil::Sel;

class DatabaseTest : public ::testing::Test {
 protected:
  void SetUp() override { db_.reset(testutil::MakeTwoTableDb(1000, 3000)); }
  std::unique_ptr<Database> db_;
};

TEST_F(DatabaseTest, CreateTableRejectsDuplicates) {
  Schema schema({{"x", TypeId::kInt64}});
  EXPECT_TRUE(db_->CreateTable("t", schema).ok());
  EXPECT_FALSE(db_->CreateTable("t", schema).ok());
  EXPECT_FALSE(db_->CreateTable("r", schema).ok());
}

TEST_F(DatabaseTest, BulkLoadValidatesArity) {
  Schema schema({{"x", TypeId::kInt64}});
  ASSERT_TRUE(db_->CreateTable("t", schema).ok());
  std::vector<Tuple> bad = {Tuple{Value(int64_t{1}), Value(int64_t{2})}};
  EXPECT_FALSE(db_->BulkLoad("t", bad).ok());
  EXPECT_FALSE(db_->BulkLoad("missing", {}).ok());
}

TEST_F(DatabaseTest, ExecuteSelection) {
  QueryGraph q;
  q.AddSelection(Sel("r", "r_a", CompareOp::kLt, Value(int64_t{10})));
  ExecuteOptions opts;
  opts.keep_rows = true;
  auto result = db_->Execute(q, opts);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->row_count, 0u);
  EXPECT_EQ(result->rows.size(), result->row_count);
  EXPECT_GT(result->seconds, 0);
  for (const auto& row : result->rows) EXPECT_LT(row[1].AsInt64(), 10);
}

TEST_F(DatabaseTest, ExecuteJoinCardinality) {
  QueryGraph q;
  q.AddJoin(RsJoin());
  auto result = db_->Execute(q);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->row_count, 3000u);  // FK join: one match per s row
}

TEST_F(DatabaseTest, MaterializeRegistersViewAndRewrites) {
  QueryGraph def;
  def.AddSelection(Sel("r", "r_a", CompareOp::kLt, Value(int64_t{20})));
  auto mat = db_->Materialize(def, "v");
  ASSERT_TRUE(mat.ok());
  EXPECT_GT(mat->row_count, 0u);
  EXPECT_GT(mat->seconds, 0);
  EXPECT_TRUE(db_->views().Contains("v"));
  EXPECT_NE(db_->catalog().GetTable("v"), nullptr);
  EXPECT_TRUE(db_->catalog().GetTable("v")->is_materialized);

  ExecuteOptions opts;
  opts.view_mode = ViewMode::kForced;
  auto result = db_->Execute(def, opts);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->views_used.size(), 1u);
  EXPECT_EQ(result->views_used[0], "v");
  EXPECT_EQ(result->row_count, mat->row_count);
}

TEST_F(DatabaseTest, MaterializeUnregisteredThenRegister) {
  QueryGraph def;
  def.AddSelection(Sel("r", "r_a", CompareOp::kLt, Value(int64_t{20})));
  auto mat = db_->Materialize(def, "v", /*register_view=*/false);
  ASSERT_TRUE(mat.ok());
  EXPECT_FALSE(db_->views().Contains("v"));

  ExecuteOptions opts;
  opts.view_mode = ViewMode::kForced;
  auto before = db_->Execute(def, opts);
  ASSERT_TRUE(before.ok());
  EXPECT_TRUE(before->views_used.empty());  // invisible until registered

  db_->RegisterView(def, "v");
  auto after = db_->Execute(def, opts);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->views_used.size(), 1u);
}

TEST_F(DatabaseTest, DropTableUnregistersView) {
  QueryGraph def;
  def.AddSelection(Sel("r", "r_a", CompareOp::kLt, Value(int64_t{20})));
  ASSERT_TRUE(db_->Materialize(def, "v").ok());
  ASSERT_TRUE(db_->DropTable("v").ok());
  EXPECT_FALSE(db_->views().Contains("v"));
  EXPECT_EQ(db_->catalog().GetTable("v"), nullptr);
  EXPECT_FALSE(db_->DropTable("v").ok());
}

TEST_F(DatabaseTest, RewritingPreservesResults) {
  QueryGraph def;
  def.AddJoin(RsJoin());
  def.AddSelection(Sel("r", "r_a", CompareOp::kLt, Value(int64_t{30})));
  ASSERT_TRUE(db_->Materialize(def, "v").ok());

  QueryGraph q = def;
  q.AddSelection(Sel("s", "s_c", CompareOp::kGe, Value(int64_t{10})));

  ExecuteOptions none;
  none.view_mode = ViewMode::kNone;
  ExecuteOptions forced;
  forced.view_mode = ViewMode::kForced;
  auto base = db_->Execute(q, none);
  auto rewritten = db_->Execute(q, forced);
  ASSERT_TRUE(base.ok());
  ASSERT_TRUE(rewritten.ok());
  EXPECT_EQ(base->row_count, rewritten->row_count);
  EXPECT_FALSE(rewritten->views_used.empty());
}

TEST_F(DatabaseTest, RewritingIsFasterForSelectiveViews) {
  QueryGraph def;
  def.AddSelection(Sel("r", "r_a", CompareOp::kLt, Value(int64_t{5})));
  ASSERT_TRUE(db_->Materialize(def, "v").ok());

  db_->ColdStart();
  ExecuteOptions none;
  none.view_mode = ViewMode::kNone;
  auto base = db_->Execute(def, none);
  ASSERT_TRUE(base.ok());

  db_->ColdStart();
  ExecuteOptions forced;
  forced.view_mode = ViewMode::kForced;
  auto fast = db_->Execute(def, forced);
  ASSERT_TRUE(fast.ok());
  EXPECT_LT(fast->seconds, base->seconds);
}

TEST_F(DatabaseTest, ColdStartRestoresIoCosts) {
  QueryGraph q;
  q.AddRelation("r");
  db_->ColdStart();  // bulk load left every page resident
  auto cold1 = db_->Execute(q);
  ASSERT_TRUE(cold1.ok());
  // Second run: warm cache, cheaper.
  auto warm = db_->Execute(q);
  ASSERT_TRUE(warm.ok());
  EXPECT_LT(warm->seconds, cold1->seconds);
  // After ColdStart the price returns.
  db_->ColdStart();
  auto cold2 = db_->Execute(q);
  ASSERT_TRUE(cold2.ok());
  EXPECT_NEAR(cold2->seconds, cold1->seconds, cold1->seconds * 0.05);
}

TEST_F(DatabaseTest, EstimateCostIsPositiveAndOrdersBySize) {
  QueryGraph small;
  small.AddSelection(Sel("r", "r_a", CompareOp::kLt, Value(int64_t{5})));
  QueryGraph big;
  big.AddJoin(RsJoin());
  auto c_small = db_->EstimateCost(small);
  auto c_big = db_->EstimateCost(big);
  ASSERT_TRUE(c_small.ok());
  ASSERT_TRUE(c_big.ok());
  EXPECT_GT(*c_small, 0);
  EXPECT_GT(*c_big, *c_small);
}

TEST_F(DatabaseTest, SqlRoundTrip) {
  QueryGraph q;
  q.AddJoin(RsJoin());
  q.AddSelection(Sel("s", "s_c", CompareOp::kLt, Value(int64_t{10})));
  EXPECT_EQ(q.ToSql(),
            "SELECT * FROM r, s WHERE r.r_id = s.s_rid AND s.s_c < 10");
  ExecuteOptions opts;
  opts.keep_rows = true;
  auto result = db_->Execute(q, opts);
  ASSERT_TRUE(result.ok());
  // SELECT *: every column of both relations, and only matching rows.
  ASSERT_EQ(result->schema.size(), 7u);
  auto s_c = result->schema.ColumnIndex("s_c");
  ASSERT_TRUE(s_c.has_value());
  EXPECT_TRUE(result->schema.HasColumn("r_s"));
  ASSERT_GT(result->rows.size(), 0u);
  EXPECT_EQ(result->rows.size(), result->row_count);
  for (const Tuple& row : result->rows) EXPECT_LT(row[*s_c].AsInt64(), 10);
}

TEST_F(DatabaseTest, IndexAndHistogramDdl) {
  EXPECT_TRUE(db_->CreateIndex("r", "r_a").ok());
  EXPECT_FALSE(db_->CreateIndex("r", "r_a").ok());  // duplicate
  EXPECT_FALSE(db_->CreateIndex("r", "nope").ok());
  EXPECT_TRUE(db_->CreateHistogram("r", "r_a").ok());
  EXPECT_NE(db_->catalog().GetHistogram("r", "r_a"), nullptr);
  EXPECT_TRUE(db_->catalog().DropHistogram("r", "r_a").ok());
  EXPECT_EQ(db_->catalog().GetHistogram("r", "r_a"), nullptr);
  EXPECT_TRUE(db_->catalog().DropIndex("r", "r_a").ok());
  EXPECT_EQ(db_->catalog().GetIndex("r", "r_a"), nullptr);
}

}  // namespace
}  // namespace sqp
