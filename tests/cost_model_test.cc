// Speculation cost model: Cost⊆ signs and factors, plus the Theorem 3.1
// equivalence property on an explicit finite query universe.
#include "speculation/cost_model.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "test_util.h"

namespace sqp {
namespace {

using testutil::RsJoin;
using testutil::Sel;

class CostModelTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_.reset(testutil::MakeTwoTableDb(2000, 6000));
    model_ = std::make_unique<SpeculationCostModel>(db_.get(), &learner_);
  }

  Manipulation SelectionManipulation(int64_t cut) {
    Manipulation m;
    m.type = ManipulationType::kRewriteQuery;
    m.target_query.AddSelection(
        Sel("r", "r_a", CompareOp::kLt, Value(cut)));
    return m;
  }

  std::unique_ptr<Database> db_;
  Learner learner_;
  std::unique_ptr<SpeculationCostModel> model_;
};

TEST_F(CostModelTest, NullManipulationScoresZero) {
  auto eval = model_->Evaluate(Manipulation::Null(), 0);
  EXPECT_DOUBLE_EQ(eval.score, 0.0);
}

TEST_F(CostModelTest, SelectiveMaterializationIsBeneficial) {
  auto eval = model_->Evaluate(SelectionManipulation(5), 0);
  EXPECT_LT(eval.score, 0);  // negative = beneficial
  EXPECT_LT(eval.cost_with, eval.cost_without);
  EXPECT_GT(eval.containment_probability, 0);
  EXPECT_LE(eval.containment_probability, 1);
  EXPECT_GT(eval.estimated_duration, eval.cost_without);  // adds write I/O
}

TEST_F(CostModelTest, UnselectiveMaterializationIsNot) {
  // r_a < 99 keeps ~everything: scanning the copy costs as much as the
  // base table, and the write is pure overhead.
  auto eval = model_->Evaluate(SelectionManipulation(99), 0);
  EXPECT_GE(eval.score, 0);
}

TEST_F(CostModelTest, MoreSelectiveMeansMoreBeneficial) {
  auto tight = model_->Evaluate(SelectionManipulation(5), 0);
  auto loose = model_->Evaluate(SelectionManipulation(60), 0);
  EXPECT_LT(tight.score, loose.score);
}

TEST_F(CostModelTest, CompletionProbabilityDampensLateIssues) {
  // Same manipulation, evaluated early vs deep into the formulation:
  // the late evaluation must not look more attractive.
  Manipulation m = SelectionManipulation(5);
  auto early = model_->Evaluate(m, 0.0);
  CostModelOptions no_completion;
  no_completion.use_completion_probability = false;
  SpeculationCostModel raw(db_.get(), &learner_, no_completion);
  auto unweighted = raw.Evaluate(m, 0.0);
  EXPECT_LE(early.completion_probability, 1.0);
  EXPECT_GE(early.score, unweighted.score);  // dampened (less negative)
  EXPECT_DOUBLE_EQ(unweighted.completion_probability, 1.0);
}

TEST_F(CostModelTest, LookaheadAmplifiesBenefit) {
  Manipulation m = SelectionManipulation(5);
  CostModelOptions one;
  one.lookahead = 1;
  CostModelOptions eight;
  eight.lookahead = 8;
  SpeculationCostModel m1(db_.get(), &learner_, one);
  SpeculationCostModel m8(db_.get(), &learner_, eight);
  auto e1 = m1.Evaluate(m, 0);
  auto e8 = m8.Evaluate(m, 0);
  EXPECT_LT(e8.score, e1.score);  // more expected uses, more benefit
  EXPECT_GT(e8.expected_uses, e1.expected_uses);
  EXPECT_DOUBLE_EQ(e1.expected_uses, 1.0);
}

TEST_F(CostModelTest, JoinManipulationEvaluates) {
  Manipulation m;
  m.type = ManipulationType::kRewriteQuery;
  m.target_query.AddJoin(RsJoin());
  m.target_query.AddSelection(
      Sel("r", "r_a", CompareOp::kLt, Value(int64_t{10})));
  auto eval = model_->Evaluate(m, 0);
  EXPECT_LT(eval.score, 0);
  EXPECT_GT(eval.cost_without, 0);
}

TEST_F(CostModelTest, HistogramAndIndexEvaluate) {
  Manipulation hist;
  hist.type = ManipulationType::kHistogramCreation;
  hist.table = "r";
  hist.column = "r_a";
  auto he = model_->Evaluate(hist, 0);
  EXPECT_LT(he.score, 0);          // mildly beneficial
  EXPECT_GT(he.score, -0.1);       // but only mildly

  Manipulation index;
  index.type = ManipulationType::kIndexCreation;
  index.table = "r";
  index.column = "r_a";
  auto ie = model_->Evaluate(index, 0);
  EXPECT_LE(ie.score, 0);

  // The paper's finding: materialization dominates both.
  auto mat = model_->Evaluate(SelectionManipulation(5), 0);
  EXPECT_LT(mat.score, he.score);
  EXPECT_LT(mat.score, ie.score);
}

// ------------------------------------------------ Theorem 3.1 property

// On an explicit finite universe, the local Cost⊆ ranking must track the
// global Σ f(q)·cost(q,m) ranking: the global argmin lands in the local
// top-2 and Spearman correlation is high. (P1 holds exactly in this
// engine; P2 approximately, so exact rank equality is not guaranteed —
// the paper itself calls the properties approximations.)
TEST_F(CostModelTest, Theorem31RankingAgreement) {
  QueryGraph s1;
  s1.AddSelection(Sel("r", "r_a", CompareOp::kLt, Value(int64_t{10})));
  QueryGraph s2;
  s2.AddSelection(Sel("s", "s_c", CompareOp::kLt, Value(int64_t{10})));
  QueryGraph j;
  j.AddJoin(RsJoin());

  struct WeightedQuery {
    QueryGraph q;
    double f;
  };
  std::vector<WeightedQuery> universe = {
      {s1, 0.15}, {s2, 0.1},          {j, 0.15},
      {j.Union(s1), 0.2}, {j.Union(s2), 0.1}, {j.Union(s1).Union(s2), 0.3},
  };
  std::vector<QueryGraph> manipulations = {
      s1, s2, j, j.Union(s1), j.Union(s2), j.Union(s1).Union(s2)};

  const Planner& planner = db_->planner();
  auto cost = [&](const QueryGraph& q, const QueryGraph* view) {
    ViewRegistry registry;
    if (view != nullptr) {
      registry.Register(ViewDefinition{"hypo", *view});
    }
    auto plan = planner.Plan(
        q, &registry, view != nullptr ? ViewMode::kForced : ViewMode::kNone);
    EXPECT_TRUE(plan.ok());
    return plan.ok() ? plan->est_cost : 0.0;
  };

  std::vector<double> global, local;
  for (const QueryGraph& qm : manipulations) {
    ASSERT_TRUE(db_->Materialize(qm, "hypo").ok());
    double g = 0;
    for (const auto& wq : universe) {
      g += wq.f * (cost(wq.q, &qm) - cost(wq.q, nullptr));
    }
    double f_contain = 0;
    for (const auto& wq : universe) {
      if (wq.q.ContainsSubgraph(qm)) f_contain += wq.f;
    }
    double l = f_contain * (cost(qm, &qm) - cost(qm, nullptr));
    global.push_back(g);
    local.push_back(l);
    ASSERT_TRUE(db_->DropTable("hypo").ok());
  }

  // Global argmin is within the local top-2.
  size_t g_best = 0, l_best = 0, l_second = 0;
  for (size_t i = 1; i < global.size(); i++) {
    if (global[i] < global[g_best]) g_best = i;
    if (local[i] < local[l_best]) {
      l_second = l_best;
      l_best = i;
    } else if (local[i] < local[l_second] || l_second == l_best) {
      l_second = i;
    }
  }
  EXPECT_TRUE(g_best == l_best || g_best == l_second)
      << "global argmin " << g_best << " local best " << l_best << "/"
      << l_second;

  // Spearman rank correlation.
  auto ranks = [](const std::vector<double>& v) {
    std::vector<size_t> idx(v.size()), rank(v.size());
    for (size_t i = 0; i < v.size(); i++) idx[i] = i;
    std::sort(idx.begin(), idx.end(),
              [&](size_t a, size_t b) { return v[a] < v[b]; });
    for (size_t i = 0; i < idx.size(); i++) rank[idx[i]] = i;
    return rank;
  };
  auto gr = ranks(global);
  auto lr = ranks(local);
  double d2 = 0;
  for (size_t i = 0; i < gr.size(); i++) {
    double d = static_cast<double>(gr[i]) - static_cast<double>(lr[i]);
    d2 += d * d;
  }
  double n = static_cast<double>(gr.size());
  double spearman = 1.0 - 6.0 * d2 / (n * (n * n - 1.0));
  EXPECT_GT(spearman, 0.7) << "rank correlation too weak";

  // Every beneficial-globally manipulation is beneficial-locally too
  // (sign agreement on the winners).
  for (size_t i = 0; i < global.size(); i++) {
    if (global[i] < -1e-3) {
      EXPECT_LT(local[i], 0.0) << i;
    }
  }
}

}  // namespace
}  // namespace sqp
