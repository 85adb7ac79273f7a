// End-to-end correctness property on the real workload: for final
// queries drawn from the user model, every execution strategy — base
// plan, forced speculative rewriting, cost-based with pre-materialized
// views — returns exactly the same multiset of rows over every column of
// the query's base relations. This is the invariant the entire
// speculation benefit rests on: rewriting must never change answers.
#include <gtest/gtest.h>

#include <set>

#include "harness/experiment.h"
#include "speculation/manipulation_space.h"
#include "test_util.h"

namespace sqp {
namespace {

using testutil::Fingerprint;

class TpchEquivalence : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TpchEquivalence, AllStrategiesAgreeOnResults) {
  ExperimentConfig cfg;
  cfg.scale = tpch::Scale::kSmall;
  cfg.num_users = 1;
  cfg.trace_seed = GetParam();
  auto db = BuildDatabase(cfg);
  ASSERT_TRUE(db.ok());
  std::vector<Trace> traces = BuildTraces(cfg);
  auto finals = traces[0].FinalQueries();
  ASSERT_GT(finals.size(), 10u);

  // Keep runtime modest: a sample of distinct final queries.
  std::set<std::string> seen;
  size_t tested = 0;
  for (const QueryGraph& q : finals) {
    if (tested >= 8) break;
    if (!seen.insert(q.CanonicalKey()).second) continue;
    tested++;

    // Rewriting reorders columns, so rows are compared by column name.
    std::vector<std::string> cols;
    for (const auto& rel : q.relations()) {
      const TableInfo* info = db->get()->catalog().GetTable(rel);
      ASSERT_NE(info, nullptr) << rel;
      for (size_t c = 0; c < info->schema.size(); c++) {
        cols.push_back(info->schema.column(c).name);
      }
    }

    ExecuteOptions base_opts;
    base_opts.keep_rows = true;
    base_opts.view_mode = ViewMode::kNone;
    auto base = db->get()->Execute(q, base_opts);
    ASSERT_TRUE(base.ok()) << q.ToSql();
    const auto expected = Fingerprint(base->rows, base->schema, cols);

    // Materialize every manipulation the Speculator would enumerate for
    // this query, then force-rewrite.
    ManipulationSpaceOptions space;
    auto manipulations = EnumerateManipulations(q, db->get()->views(),
                                                db->get()->catalog(), space);
    std::vector<std::string> created;
    for (size_t m = 0; m < manipulations.size(); m++) {
      std::string name = "eq_mv_" + std::to_string(m);
      auto mat = db->get()->Materialize(manipulations[m].target_query, name);
      ASSERT_TRUE(mat.ok()) << manipulations[m].Describe();
      created.push_back(name);
    }

    ExecuteOptions forced_opts;
    forced_opts.keep_rows = true;
    forced_opts.view_mode = ViewMode::kForced;
    auto forced = db->get()->Execute(q, forced_opts);
    ASSERT_TRUE(forced.ok());
    EXPECT_EQ(forced->row_count, base->row_count)
        << q.ToSql() << "\n" << forced->plan_explain;
    EXPECT_EQ(Fingerprint(forced->rows, forced->schema, cols), expected)
        << q.ToSql() << "\n" << forced->plan_explain;

    ExecuteOptions cost_opts;
    cost_opts.keep_rows = true;
    cost_opts.view_mode = ViewMode::kCostBased;
    auto cost_based = db->get()->Execute(q, cost_opts);
    ASSERT_TRUE(cost_based.ok());
    EXPECT_EQ(cost_based->row_count, base->row_count) << q.ToSql();
    EXPECT_EQ(Fingerprint(cost_based->rows, cost_based->schema, cols),
              expected)
        << q.ToSql();

    for (const auto& name : created) {
      ASSERT_TRUE(db->get()->DropTable(name).ok());
    }
  }
  EXPECT_GE(tested, 5u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TpchEquivalence, ::testing::Values(31, 77));

}  // namespace
}  // namespace sqp
