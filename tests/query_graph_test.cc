// Query graphs: edge-set semantics, containment, union/intersection,
// connectivity — the algebra Theorem 3.1 quantifies over.
#include "optimizer/query_graph.h"

#include <gtest/gtest.h>

#include "test_util.h"

namespace sqp {
namespace {

using testutil::Join;
using testutil::Sel;

TEST(QueryGraphTest, AddSelectionAddsRelation) {
  QueryGraph g;
  g.AddSelection(Sel("r", "r_a", CompareOp::kLt, Value(int64_t{5})));
  EXPECT_TRUE(g.HasRelation("r"));
  EXPECT_EQ(g.selections().size(), 1u);
  EXPECT_EQ(g.num_atomic_parts(), 1u);
}

TEST(QueryGraphTest, AddJoinAddsBothRelations) {
  QueryGraph g;
  g.AddJoin(Join("r", "r_id", "s", "s_rid"));
  EXPECT_TRUE(g.HasRelation("r"));
  EXPECT_TRUE(g.HasRelation("s"));
  EXPECT_EQ(g.joins().size(), 1u);
}

TEST(QueryGraphTest, JoinCanonicalizationMakesOrderIrrelevant) {
  JoinPred a = Join("r", "r_id", "s", "s_rid");
  JoinPred b = Join("s", "s_rid", "r", "r_id");
  EXPECT_EQ(a.Key(), b.Key());
  QueryGraph g;
  g.AddJoin(a);
  g.AddJoin(b);
  EXPECT_EQ(g.joins().size(), 1u);  // duplicate suppressed
}

TEST(QueryGraphTest, DuplicateSelectionSuppressed) {
  QueryGraph g;
  auto s = Sel("r", "r_a", CompareOp::kEq, Value(int64_t{1}));
  g.AddSelection(s);
  g.AddSelection(s);
  EXPECT_EQ(g.selections().size(), 1u);
  // Different constant = different atomic part.
  g.AddSelection(Sel("r", "r_a", CompareOp::kEq, Value(int64_t{2})));
  EXPECT_EQ(g.selections().size(), 2u);
}

TEST(QueryGraphTest, RemoveSelectionByKey) {
  QueryGraph g;
  auto s = Sel("r", "r_a", CompareOp::kLt, Value(int64_t{5}));
  g.AddSelection(s);
  EXPECT_TRUE(g.RemoveSelection(s.Key()));
  EXPECT_FALSE(g.RemoveSelection(s.Key()));
  EXPECT_EQ(g.selections().size(), 0u);
  // The relation vertex stays until explicitly removed.
  EXPECT_TRUE(g.HasRelation("r"));
  EXPECT_TRUE(g.RemoveRelation("r"));
  EXPECT_FALSE(g.HasRelation("r"));
}

TEST(QueryGraphTest, RemoveRelationDropsIncidentEdges) {
  QueryGraph g;
  g.AddJoin(Join("r", "r_id", "s", "s_rid"));
  g.AddSelection(Sel("r", "r_a", CompareOp::kLt, Value(int64_t{5})));
  g.AddSelection(Sel("s", "s_c", CompareOp::kGt, Value(int64_t{5})));
  g.RemoveRelation("r");
  EXPECT_EQ(g.joins().size(), 0u);
  EXPECT_EQ(g.selections().size(), 1u);
  EXPECT_EQ(g.selections()[0].table, "s");
}

TEST(QueryGraphTest, ContainmentIsSubgraph) {
  QueryGraph big;
  big.AddJoin(Join("r", "r_id", "s", "s_rid"));
  big.AddSelection(Sel("r", "r_a", CompareOp::kLt, Value(int64_t{5})));

  QueryGraph sub;
  sub.AddSelection(Sel("r", "r_a", CompareOp::kLt, Value(int64_t{5})));
  EXPECT_TRUE(big.ContainsSubgraph(sub));
  EXPECT_FALSE(sub.ContainsSubgraph(big));
  EXPECT_TRUE(big.ContainsSubgraph(big));
  EXPECT_TRUE(big.ContainsSubgraph(QueryGraph()));  // empty ⊆ anything

  QueryGraph other;
  other.AddSelection(Sel("r", "r_a", CompareOp::kLt, Value(int64_t{6})));
  EXPECT_FALSE(big.ContainsSubgraph(other));  // different constant
}

TEST(QueryGraphTest, UnionAndIntersection) {
  QueryGraph a, b;
  a.AddSelection(Sel("r", "r_a", CompareOp::kLt, Value(int64_t{5})));
  a.AddJoin(Join("r", "r_id", "s", "s_rid"));
  b.AddJoin(Join("r", "r_id", "s", "s_rid"));
  b.AddSelection(Sel("s", "s_c", CompareOp::kGt, Value(int64_t{1})));

  QueryGraph u = a.Union(b);
  EXPECT_EQ(u.selections().size(), 2u);
  EXPECT_EQ(u.joins().size(), 1u);

  QueryGraph i = a.Intersect(b);
  EXPECT_EQ(i.selections().size(), 0u);
  EXPECT_EQ(i.joins().size(), 1u);

  EXPECT_TRUE(u.ContainsSubgraph(a));
  EXPECT_TRUE(u.ContainsSubgraph(b));
  EXPECT_TRUE(a.ContainsSubgraph(i));
  EXPECT_TRUE(b.ContainsSubgraph(i));
}

TEST(QueryGraphTest, DisjointWith) {
  QueryGraph a, b;
  a.AddSelection(Sel("r", "r_a", CompareOp::kLt, Value(int64_t{5})));
  b.AddSelection(Sel("s", "s_c", CompareOp::kGt, Value(int64_t{1})));
  EXPECT_TRUE(a.DisjointWith(b));
  b.AddSelection(Sel("r", "r_a", CompareOp::kLt, Value(int64_t{5})));
  EXPECT_FALSE(a.DisjointWith(b));
}

TEST(QueryGraphTest, Connectivity) {
  QueryGraph g;
  g.AddJoin(Join("a", "x", "b", "x"));
  g.AddJoin(Join("b", "y", "c", "y"));
  EXPECT_TRUE(g.IsConnected());
  g.AddRelation("d");  // isolated vertex
  EXPECT_FALSE(g.IsConnected());
  g.AddJoin(Join("c", "z", "d", "z"));
  EXPECT_TRUE(g.IsConnected());
  EXPECT_TRUE(QueryGraph().IsConnected());
}

TEST(QueryGraphTest, CanonicalKeyOrderInsensitive) {
  QueryGraph a, b;
  a.AddSelection(Sel("r", "r_a", CompareOp::kLt, Value(int64_t{5})));
  a.AddJoin(Join("r", "r_id", "s", "s_rid"));
  b.AddJoin(Join("s", "s_rid", "r", "r_id"));
  b.AddSelection(Sel("r", "r_a", CompareOp::kLt, Value(int64_t{5})));
  EXPECT_EQ(a.CanonicalKey(), b.CanonicalKey());
  EXPECT_TRUE(a == b);
}

TEST(QueryGraphTest, SelectionsOnAndJoinsOn) {
  QueryGraph g;
  g.AddJoin(Join("r", "r_id", "s", "s_rid"));
  g.AddSelection(Sel("r", "r_a", CompareOp::kLt, Value(int64_t{5})));
  g.AddSelection(Sel("r", "r_b", CompareOp::kGt, Value(0.5)));
  g.AddSelection(Sel("s", "s_c", CompareOp::kEq, Value(int64_t{3})));
  EXPECT_EQ(g.SelectionsOn("r").size(), 2u);
  EXPECT_EQ(g.SelectionsOn("s").size(), 1u);
  EXPECT_EQ(g.JoinsOn("r").size(), 1u);
  EXPECT_EQ(g.JoinsOn("missing").size(), 0u);
}

TEST(QueryGraphTest, ToSqlRendering) {
  QueryGraph g;
  g.AddJoin(Join("r", "r_id", "s", "s_rid"));
  g.AddSelection(Sel("r", "r_a", CompareOp::kLt, Value(int64_t{5})));
  std::string sql = g.ToSql();
  EXPECT_NE(sql.find("SELECT * "), std::string::npos);
  EXPECT_NE(sql.find("FROM r, s"), std::string::npos);
  EXPECT_NE(sql.find("r.r_id = s.s_rid"), std::string::npos);
  EXPECT_NE(sql.find("r.r_a < 5"), std::string::npos);
}

TEST(QueryGraphTest, JoinPredHelpers) {
  JoinPred j = Join("r", "r_id", "s", "s_rid");
  EXPECT_TRUE(j.Touches("r"));
  EXPECT_TRUE(j.Touches("s"));
  EXPECT_FALSE(j.Touches("t"));
  EXPECT_EQ(j.Other("r"), "s");
  EXPECT_EQ(j.Other("s"), "r");
}

}  // namespace
}  // namespace sqp
