// Traces: event application semantics, final-query reconstruction,
// duration accounting, and (de)serialization round trips.
#include "trace/trace.h"

#include <gtest/gtest.h>

#include "test_util.h"
#include "trace/trace_generator.h"

namespace sqp {
namespace {

using testutil::Join;
using testutil::Sel;

TraceEvent SelAdd(double t, SelectionPred s) {
  TraceEvent e;
  e.timestamp = t;
  e.type = TraceEventType::kAddSelection;
  e.selection = std::move(s);
  return e;
}

TraceEvent SelDel(double t, SelectionPred s) {
  TraceEvent e;
  e.timestamp = t;
  e.type = TraceEventType::kRemoveSelection;
  e.selection = std::move(s);
  return e;
}

TraceEvent JoinAdd(double t, JoinPred j) {
  TraceEvent e;
  e.timestamp = t;
  e.type = TraceEventType::kAddJoin;
  e.join = std::move(j);
  return e;
}

TraceEvent JoinDel(double t, JoinPred j) {
  TraceEvent e;
  e.timestamp = t;
  e.type = TraceEventType::kRemoveJoin;
  e.join = std::move(j);
  return e;
}

TraceEvent Go(double t) {
  TraceEvent e;
  e.timestamp = t;
  e.type = TraceEventType::kGo;
  return e;
}

TEST(TraceApplyTest, RemoveSelectionDropsOrphanRelation) {
  QueryGraph g;
  auto sel = Sel("r", "r_a", CompareOp::kLt, Value(int64_t{5}));
  Trace::Apply(SelAdd(0, sel), &g);
  EXPECT_TRUE(g.HasRelation("r"));
  Trace::Apply(SelDel(1, sel), &g);
  EXPECT_FALSE(g.HasRelation("r"));
}

TEST(TraceApplyTest, RemoveSelectionKeepsJoinedRelation) {
  QueryGraph g;
  auto sel = Sel("r", "r_a", CompareOp::kLt, Value(int64_t{5}));
  Trace::Apply(JoinAdd(0, Join("r", "r_id", "s", "s_rid")), &g);
  Trace::Apply(SelAdd(1, sel), &g);
  Trace::Apply(SelDel(2, sel), &g);
  EXPECT_TRUE(g.HasRelation("r"));  // still joined
}

TEST(TraceApplyTest, RemoveJoinDropsOrphansOnBothSides) {
  QueryGraph g;
  auto join = Join("r", "r_id", "s", "s_rid");
  Trace::Apply(JoinAdd(0, join), &g);
  Trace::Apply(SelAdd(1, Sel("r", "r_a", CompareOp::kLt, Value(int64_t{5}))),
               &g);
  Trace::Apply(JoinDel(2, join), &g);
  EXPECT_TRUE(g.HasRelation("r"));   // kept: has a selection
  EXPECT_FALSE(g.HasRelation("s"));  // orphaned
}

TEST(TraceTest, FinalQueriesSnapshotAtEachGo) {
  Trace trace;
  auto sel = Sel("r", "r_a", CompareOp::kLt, Value(int64_t{5}));
  auto join = Join("r", "r_id", "s", "s_rid");
  trace.events = {SelAdd(1, sel), Go(5), JoinAdd(8, join), Go(12),
                  SelDel(15, sel), Go(20)};
  auto finals = trace.FinalQueries();
  ASSERT_EQ(finals.size(), 3u);
  EXPECT_EQ(finals[0].selections().size(), 1u);
  EXPECT_EQ(finals[0].joins().size(), 0u);
  EXPECT_EQ(finals[1].selections().size(), 1u);
  EXPECT_EQ(finals[1].joins().size(), 1u);
  EXPECT_EQ(finals[2].selections().size(), 0u);
  EXPECT_EQ(finals[2].joins().size(), 1u);
  EXPECT_EQ(trace.QueryCount(), 3u);
}

TEST(TraceTest, FormulationDurationsFirstEditToGo) {
  Trace trace;
  auto sel = Sel("r", "r_a", CompareOp::kLt, Value(int64_t{5}));
  trace.events = {SelAdd(2, sel), Go(10),
                  SelDel(12, sel), SelAdd(14, sel), Go(20)};
  auto durations = trace.FormulationDurations();
  ASSERT_EQ(durations.size(), 2u);
  EXPECT_DOUBLE_EQ(durations[0], 8.0);
  EXPECT_DOUBLE_EQ(durations[1], 8.0);
}

TEST(TraceTest, SerializeDeserializeRoundTrip) {
  Trace trace;
  trace.user_id = 9;
  trace.seed = 12345;
  trace.events = {
      SelAdd(1.25, Sel("r", "r_a", CompareOp::kLe, Value(int64_t{42}))),
      SelAdd(2.5, Sel("r", "r_b", CompareOp::kGt, Value(3.75))),
      SelAdd(3.0, Sel("r", "r_s", CompareOp::kEq, Value("alpha"))),
      JoinAdd(4.0, Join("r", "r_id", "s", "s_rid")),
      Go(9.0),
      JoinDel(11.0, Join("r", "r_id", "s", "s_rid")),
      Go(15.0),
  };
  std::string text = trace.Serialize();
  auto back = Trace::Deserialize(text);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->user_id, 9u);
  EXPECT_EQ(back->seed, 12345u);
  ASSERT_EQ(back->events.size(), trace.events.size());
  for (size_t i = 0; i < trace.events.size(); i++) {
    EXPECT_EQ(back->events[i].type, trace.events[i].type) << i;
    EXPECT_NEAR(back->events[i].timestamp, trace.events[i].timestamp, 1e-3);
  }
  EXPECT_EQ(back->events[0].selection.Key(), trace.events[0].selection.Key());
  EXPECT_EQ(back->events[2].selection.constant.AsString(), "alpha");
  EXPECT_EQ(back->events[3].join.Key(), trace.events[3].join.Key());
  // Reconstructed final queries are identical.
  auto f1 = trace.FinalQueries();
  auto f2 = back->FinalQueries();
  ASSERT_EQ(f1.size(), f2.size());
  for (size_t i = 0; i < f1.size(); i++) {
    EXPECT_EQ(f1[i].CanonicalKey(), f2[i].CanonicalKey());
  }
}

TEST(TraceTest, GeneratedTraceSurvivesRoundTrip) {
  UserModelParams params;
  Trace trace = GenerateTrace(params, 3, 999);
  auto back = Trace::Deserialize(trace.Serialize());
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back->events.size(), trace.events.size());
  auto f1 = trace.FinalQueries();
  auto f2 = back->FinalQueries();
  ASSERT_EQ(f1.size(), f2.size());
  for (size_t i = 0; i < f1.size(); i++) {
    ASSERT_EQ(f1[i].CanonicalKey(), f2[i].CanonicalKey()) << "query " << i;
  }
}

TEST(TraceTest, DeserializeRejectsGarbage) {
  EXPECT_FALSE(Trace::Deserialize("WHAT\t1.0\n").ok());
  EXPECT_FALSE(Trace::Deserialize("SEL_ADD\t1.0\tr\n").ok());
  EXPECT_FALSE(Trace::Deserialize("SEL_ADD\t1.0\tr\tc\t??\ti:1\n").ok());
  EXPECT_FALSE(Trace::Deserialize("SEL_ADD\t1.0\tr\tc\t<\tz:1\n").ok());
  EXPECT_TRUE(Trace::Deserialize("").ok());  // empty trace is fine
}

TEST(TraceTest, SerializationAgreesWithGraphKeys) {
  // SelectionPred/JoinPred keys survive the trace text format exactly —
  // the property replay determinism depends on.
  Trace trace;
  TraceEvent e;
  e.type = TraceEventType::kAddSelection;
  e.selection = Sel("r", "r_b", CompareOp::kGe, Value(0.12345678901234));
  trace.events.push_back(e);
  e.selection = Sel("r", "r_s", CompareOp::kEq, Value("it's-free text"));
  // (No embedded tabs/quotes in workload strings, but spaces and
  // apostrophes must survive.)
  e.selection.constant = Value("with space");
  trace.events.push_back(e);
  auto back = Trace::Deserialize(trace.Serialize());
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back->events.size(), 2u);
  EXPECT_EQ(back->events[0].selection.Key(),
            trace.events[0].selection.Key());
  EXPECT_EQ(back->events[1].selection.constant.AsString(), "with space");
}

TEST(TraceFileTest, SaveAndLoadDirectory) {
  UserModelParams params;
  std::vector<Trace> traces;
  for (uint64_t u = 0; u < 3; u++) {
    traces.push_back(GenerateTrace(params, u, 100 + u));
  }
  std::string dir = ::testing::TempDir() + "/sqp_traces";
  ASSERT_TRUE(SaveTraces(traces, dir).ok());
  auto loaded = LoadTraces(dir);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->size(), 3u);
  for (size_t i = 0; i < 3; i++) {
    EXPECT_EQ((*loaded)[i].user_id, traces[i].user_id);
    EXPECT_EQ((*loaded)[i].events.size(), traces[i].events.size());
  }
  EXPECT_FALSE(LoadTraces("/nonexistent/dir").ok());
}

}  // namespace
}  // namespace sqp
