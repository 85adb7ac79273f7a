// EXPLAIN ANALYZE operator profiling (DESIGN.md §11): per-operator
// actuals vs planner estimates, Q-error, deterministic rendering, and
// the guarantee that profiling never perturbs simulated charges.
#include "exec/plan_profile.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "common/metrics_registry.h"
#include "db/database.h"
#include "test_util.h"

namespace sqp {
namespace {

using testutil::RsJoin;
using testutil::Sel;

class ExplainTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_.reset(testutil::MakeTwoTableDb(2000, 6000));
    db_->ColdStart();
  }

  QueryGraph SelQuery() {
    QueryGraph q;
    q.AddSelection(Sel("r", "r_a", CompareOp::kLt, Value(int64_t{40})));
    return q;
  }

  QueryGraph JoinQuery() {
    QueryGraph q = SelQuery();
    q.AddJoin(RsJoin());
    return q;
  }

  static void CheckNode(const OperatorProfile& node) {
    EXPECT_FALSE(node.op.empty());
    EXPECT_GE(node.est_rows, 0) << node.op << " has no estimate";
    EXPECT_GE(node.QError(), 1.0) << node.op;
    for (const auto& child : node.children) CheckNode(*child);
  }

  std::unique_ptr<Database> db_;
};

TEST_F(ExplainTest, RootActualsMatchResultRowCount) {
  ExecuteOptions opts;
  opts.explain_analyze = true;
  auto result = db_->Execute(SelQuery(), opts);
  ASSERT_TRUE(result.ok());
  ASSERT_NE(result->profile, nullptr);
  ASSERT_NE(result->profile->root, nullptr);
  const OperatorProfile& root = *result->profile->root;
  EXPECT_EQ(root.act_rows, result->row_count);
  EXPECT_GT(root.batches, 0u);
  EXPECT_GT(root.sim_seconds, 0.0);
  EXPECT_DOUBLE_EQ(root.est_rows, result->est_rows);
  CheckNode(root);
}

TEST_F(ExplainTest, EveryOperatorCarriesEstimateAndQError) {
  ExecuteOptions opts;
  opts.explain_analyze = true;
  auto result = db_->Execute(JoinQuery(), opts);
  ASSERT_TRUE(result.ok());
  ASSERT_NE(result->profile, nullptr);
  const OperatorProfile& root = *result->profile->root;
  // SELECT * keeps the join as the root, feeding from two scans.
  EXPECT_EQ(root.op, "HashJoin");
  ASSERT_EQ(root.children.size(), 2u);
  CheckNode(root);
  // Charges are inclusive: the root subtree saw at least what either
  // scan subtree saw.
  for (const auto& scan : root.children) {
    EXPECT_GE(root.tuples_charged, scan->tuples_charged);
    EXPECT_GE(root.sim_seconds, scan->sim_seconds);
  }
}

TEST_F(ExplainTest, ProfilingNeverChangesSimulatedCharges) {
  ExecuteOptions plain;
  auto base = db_->Execute(JoinQuery(), plain);
  ASSERT_TRUE(base.ok());
  ASSERT_TRUE(db_->ColdStart().ok());
  ExecuteOptions profiled;
  profiled.explain_analyze = true;
  auto with = db_->Execute(JoinQuery(), profiled);
  ASSERT_TRUE(with.ok());
  EXPECT_EQ(base->row_count, with->row_count);
  EXPECT_DOUBLE_EQ(base->seconds, with->seconds);
  EXPECT_EQ(base->blocks, with->blocks);
  // Without the flag there is no profile, but est_rows still lands.
  EXPECT_EQ(base->profile, nullptr);
  EXPECT_DOUBLE_EQ(base->est_rows, with->est_rows);
}

TEST_F(ExplainTest, TextRenderingIsByteIdenticalAcrossRuns) {
  ExecuteOptions opts;
  opts.explain_analyze = true;
  auto first = db_->Execute(JoinQuery(), opts);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(db_->ColdStart().ok());
  auto second = db_->Execute(JoinQuery(), opts);
  ASSERT_TRUE(second.ok());
  ASSERT_NE(first->profile, nullptr);
  ASSERT_NE(second->profile, nullptr);
  EXPECT_EQ(first->profile->FormatText(), second->profile->FormatText());
  EXPECT_EQ(first->profile->FormatJson(), second->profile->FormatJson());
  // Text mentions every operator and the Q-error column.
  std::string text = first->profile->FormatText();
  EXPECT_NE(text.find("HashJoin"), std::string::npos);
  EXPECT_NE(text.find("SeqScan"), std::string::npos);
  EXPECT_NE(text.find(" q="), std::string::npos);
  // Wall time only shows up on request (it is non-deterministic).
  EXPECT_EQ(text.find("wall="), std::string::npos);
  EXPECT_NE(first->profile->FormatText(/*include_wall=*/true).find("wall="),
            std::string::npos);
}

TEST_F(ExplainTest, JsonIsBalancedAndTagged) {
  ExecuteOptions opts;
  opts.explain_analyze = true;
  auto result = db_->Execute(JoinQuery(), opts);
  ASSERT_TRUE(result.ok());
  std::string json = result->profile->FormatJson();
  int depth = 0;
  for (char c : json) {
    if (c == '{' || c == '[') depth++;
    if (c == '}' || c == ']') depth--;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  EXPECT_NE(json.find("\"op\":\"HashJoin\""), std::string::npos);
  EXPECT_NE(json.find("\"children\":["), std::string::npos);
  EXPECT_NE(json.find("\"q_error\":"), std::string::npos);
}

TEST_F(ExplainTest, RootQErrorObservedInRegistry) {
  auto& registry = MetricsRegistry::Global();
  registry.ResetAll();
  ExecuteOptions opts;
  opts.explain_analyze = true;
  ASSERT_TRUE(db_->Execute(SelQuery(), opts).ok());
  ASSERT_TRUE(db_->Execute(JoinQuery(), opts).ok());
  auto snapshot = registry.Snapshot();
  auto it = snapshot.histograms.find("exec.plan.q_error");
  ASSERT_NE(it, snapshot.histograms.end());
  EXPECT_EQ(it->second.count, 2u);
  // Every observation is a q-error, so the mean is >= 1.
  EXPECT_GE(it->second.sum / it->second.count, 1.0);
}

TEST_F(ExplainTest, QuantilesInterpolateWithinBuckets) {
  MetricsSnapshot::HistogramEntry entry;
  entry.bounds = {1.0, 2.0, 4.0};
  entry.counts = {10, 0, 0, 0};
  entry.count = 10;
  // All mass in [0, 1]: the median interpolates to the bucket middle.
  EXPECT_DOUBLE_EQ(entry.Quantile(0.5), 0.5);
  EXPECT_DOUBLE_EQ(entry.Quantile(1.0), 1.0);
  // Overflow mass pins to the last finite bound.
  entry.counts = {0, 0, 0, 5};
  entry.count = 5;
  EXPECT_DOUBLE_EQ(entry.Quantile(0.99), 4.0);
  // Empty histogram reports 0.
  entry.counts = {0, 0, 0, 0};
  entry.count = 0;
  EXPECT_DOUBLE_EQ(entry.Quantile(0.5), 0.0);
}

}  // namespace
}  // namespace sqp
