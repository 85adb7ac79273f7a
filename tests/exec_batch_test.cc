// Batch-size differential: every batch size must be observationally
// identical to exact 1-row batches — same tuples in the same order AND
// identical simulated CostMeter charges (DESIGN.md §10) — across
// randomized tables/predicates/joins, edge-case shapes, and
// deterministic fault schedules. LIMIT's charges are pinned separately
// against an oracle that shares no executor code.
#include <gtest/gtest.h>

#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/fault_injector.h"
#include "common/metrics_registry.h"
#include "common/rng.h"
#include "exec/executors.h"
#include "test_util.h"

namespace sqp {
namespace {

using testutil::Join;
using testutil::LimitExecutor;
using testutil::Sel;

using ExecFactory = std::function<std::unique_ptr<Executor>()>;

/// Everything observable about one executor-tree run.
struct RunOutcome {
  Status status = Status::OK();
  std::vector<Tuple> rows;
  uint64_t tuples = 0;
  uint64_t blocks_read = 0;
  uint64_t blocks_written = 0;
};

/// Drive a fresh executor tree batch-at-a-time from a cold buffer pool.
RunOutcome RunBatchPath(Database* db, const ExecFactory& factory,
                        size_t batch_size) {
  RunOutcome out;
  EXPECT_TRUE(db->ColdStart().ok());
  const CostMeter& meter = db->meter();
  uint64_t r0 = meter.blocks_read();
  uint64_t w0 = meter.blocks_written();
  uint64_t t0 = meter.tuples_processed();
  std::unique_ptr<Executor> exec = factory();
  out.status = exec->Init();
  TupleBatch batch(batch_size);
  while (out.status.ok()) {
    auto more = exec->NextBatch(&batch);
    if (!more.ok()) {
      out.status = more.status();
      break;
    }
    if (batch.empty()) break;
    for (Tuple& row : batch) out.rows.push_back(std::move(row));
  }
  out.blocks_read = meter.blocks_read() - r0;
  out.blocks_written = meter.blocks_written() - w0;
  out.tuples = meter.tuples_processed() - t0;
  return out;
}

void ExpectIdentical(const RunOutcome& exact_run,
                     const RunOutcome& batch_run) {
  ASSERT_EQ(exact_run.status.code(), batch_run.status.code())
      << "1-row: " << exact_run.status.ToString()
      << " batch: " << batch_run.status.ToString();
  ASSERT_EQ(exact_run.rows.size(), batch_run.rows.size());
  for (size_t i = 0; i < exact_run.rows.size(); i++) {
    ASSERT_EQ(exact_run.rows[i], batch_run.rows[i]) << "row " << i;
  }
  EXPECT_EQ(exact_run.tuples, batch_run.tuples) << "CPU charge diverged";
  EXPECT_EQ(exact_run.blocks_read, batch_run.blocks_read)
      << "read charge diverged";
  EXPECT_EQ(exact_run.blocks_written, batch_run.blocks_written)
      << "write charge diverged";
}

/// Run the differential across a spread of batch sizes around
/// page/row-count boundaries, against exact 1-row batches.
void Differential(Database* db, const ExecFactory& factory) {
  RunOutcome exact_run = RunBatchPath(db, factory, 1);
  for (size_t batch_size : {size_t{7}, size_t{256}, kDefaultExecBatchSize}) {
    SCOPED_TRACE("batch_size " + std::to_string(batch_size));
    RunOutcome batch_run = RunBatchPath(db, factory, batch_size);
    ExpectIdentical(exact_run, batch_run);
  }
}

/// Factory for a planner-built tree over `graph` (fresh tree per call).
ExecFactory PlannedFactory(Database* db, QueryGraph graph) {
  return [db, graph]() {
    auto plan = db->planner().Plan(graph, &db->views(), ViewMode::kNone);
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    auto exec = db->planner().Build(*plan, &db->catalog(),
                                    &db->buffer_pool(), &db->meter());
    EXPECT_TRUE(exec.ok()) << exec.status().ToString();
    return std::move(*exec);
  };
}

TEST(ExecBatchDifferentialTest, RandomizedScansAndJoins) {
  Rng rng(0xbadc0ffee);
  for (int round = 0; round < 8; round++) {
    SCOPED_TRACE("round " + std::to_string(round));
    size_t rows_r = 200 + static_cast<size_t>(rng.NextRange(2000));
    size_t rows_s = 200 + static_cast<size_t>(rng.NextRange(4000));
    std::unique_ptr<Database> db(
        testutil::MakeTwoTableDb(rows_r, rows_s, /*seed=*/round + 11));

    QueryGraph graph;
    graph.AddRelation("r");
    // Random predicate mix on r (and s when joined).
    if (rng.NextDouble(0, 1) < 0.8) {
      CompareOp op = rng.NextDouble(0, 1) < 0.5 ? CompareOp::kLt
                                                : CompareOp::kGe;
      graph.AddSelection(Sel("r", "r_a", op, Value(rng.NextInt(0, 99))));
    }
    if (rng.NextDouble(0, 1) < 0.6) {
      graph.AddJoin(testutil::RsJoin());
      if (rng.NextDouble(0, 1) < 0.5) {
        graph.AddSelection(
            Sel("s", "s_c", CompareOp::kLt, Value(rng.NextInt(1, 49))));
      }
    }
    Differential(db.get(), PlannedFactory(db.get(), graph));
  }
}

TEST(ExecBatchDifferentialTest, EmptyTable) {
  std::unique_ptr<Database> db(testutil::MakeTwoTableDb(0, 0));
  TableInfo* r = db->catalog().GetTable("r");
  ASSERT_NE(r, nullptr);
  Differential(db.get(), [&] {
    return std::make_unique<SeqScanExecutor>(r, &db->buffer_pool(),
                                             &db->meter());
  });
}

TEST(ExecBatchDifferentialTest, SingleTuple) {
  std::unique_ptr<Database> db(testutil::MakeTwoTableDb(1, 1));
  QueryGraph graph;
  graph.AddJoin(testutil::RsJoin());
  Differential(db.get(), PlannedFactory(db.get(), graph));
}

TEST(ExecBatchDifferentialTest, ExactBatchBoundary) {
  // 512 rows: exact multiples of batch sizes 1 and 256, and exactly two
  // 256-row batches — the end-of-stream batch is empty, not short.
  std::unique_ptr<Database> db(testutil::MakeTwoTableDb(512, 512));
  TableInfo* r = db->catalog().GetTable("r");
  ASSERT_NE(r, nullptr);
  ExecFactory factory = [&] {
    return std::make_unique<SeqScanExecutor>(r, &db->buffer_pool(),
                                             &db->meter());
  };
  RunOutcome exact_run = RunBatchPath(db.get(), factory, 1);
  ASSERT_EQ(exact_run.rows.size(), 512u);
  for (size_t batch_size : {size_t{256}, size_t{512}}) {
    SCOPED_TRACE("batch_size " + std::to_string(batch_size));
    ExpectIdentical(exact_run, RunBatchPath(db.get(), factory, batch_size));
  }
}

TEST(ExecBatchDifferentialTest, AllFilteredBatches) {
  std::unique_ptr<Database> db(testutil::MakeTwoTableDb(1500, 100));
  QueryGraph graph;
  // r_a is uniform in [0, 100): nothing survives.
  graph.AddSelection(
      Sel("r", "r_a", CompareOp::kLt, Value(static_cast<int64_t>(-1))));
  Differential(db.get(), PlannedFactory(db.get(), graph));
}

TEST(ExecBatchDifferentialTest, LimitDecoration) {
  std::unique_ptr<Database> db(testutil::MakeTwoTableDb(900, 2700));
  QueryGraph graph;
  graph.AddJoin(testutil::RsJoin());
  graph.AddSelection(
      Sel("s", "s_c", CompareOp::kLt, Value(static_cast<int64_t>(30))));
  ExecFactory spj = PlannedFactory(db.get(), graph);
  // LIMIT pulls its child through exact 1-row batches at every output
  // batch size: the child is charged for exactly `limit` rows.
  Differential(db.get(), [&] {
    return std::make_unique<LimitExecutor>(spj(), 37);
  });
}

/// r ⋈ s on r.r_a < s.s_c as a nested-loop join, r outer: many matches
/// per outer row, so a 1-row batch stops inside the inner loop.
ExecFactory NestedLoopFactory(Database* db) {
  return [db] {
    const TableInfo* r = db->catalog().GetTable("r");
    const TableInfo* s = db->catalog().GetTable("s");
    // Condition columns index r ++ s: r.r_a is 1, s.s_c is 4 + 2.
    return std::make_unique<NestedLoopJoinExecutor>(
        std::make_unique<SeqScanExecutor>(r, &db->buffer_pool(),
                                          &db->meter()),
        std::make_unique<SeqScanExecutor>(s, &db->buffer_pool(),
                                          &db->meter()),
        std::vector<NestedLoopJoinExecutor::JoinCondition>{
            {1, 6, CompareOp::kLt}},
        &db->meter());
  };
}

TEST(ExecBatchDifferentialTest, NestedLoopJoinResumesInnerLoop) {
  std::unique_ptr<Database> db(testutil::MakeTwoTableDb(60, 80));
  Differential(db.get(), NestedLoopFactory(db.get()));
}

// ---------------------------------------------------------- LIMIT oracle
//
// LIMIT's charges checked against an oracle that shares no src/exec
// code: it walks the heap pages by hand through the buffer pool, decodes
// each slot with the storage layer's DeserializeTuple, and counts what
// the cost model charges — one block per page a cold pool reads, one
// tuple per slot a scan examines, for a hash join one more per build
// row, per probe row and per emitted match, and for a nested-loop join
// one more per inner row, per outer row and per comparison.

struct OracleRun {
  std::vector<Tuple> rows;
  uint64_t tuples = 0;
  uint64_t blocks_read = 0;
};

/// Every row of `table`, page by page, read by hand from a cold pool.
std::vector<std::vector<Tuple>> HeapPagesByHand(Database* db,
                                                const TableInfo* table) {
  EXPECT_TRUE(db->ColdStart().ok());
  uint64_t r0 = db->meter().blocks_read();
  std::vector<std::vector<Tuple>> pages;
  for (page_id_t id : table->heap->pages()) {
    auto page = db->buffer_pool().FetchPage(id);
    EXPECT_TRUE(page.ok()) << page.status().ToString();
    if (!page.ok()) return pages;
    std::vector<Tuple>& rows = pages.emplace_back();
    for (uint16_t slot = 0; slot < (*page)->slot_count(); slot++) {
      uint16_t len = 0;
      const uint8_t* rec = (*page)->Record(slot, &len);
      rows.push_back(DeserializeTuple(rec, len));
    }
    db->buffer_pool().UnpinPage(id, /*dirty=*/false);
  }
  // A cold pool reads each page once: the oracle's block model.
  EXPECT_EQ(db->meter().blocks_read() - r0, pages.size());
  return pages;
}

/// LIMIT `limit` over a scan of `table` with `keep` as its predicate.
OracleRun OracleLimitScan(Database* db, const TableInfo* table,
                          const std::function<bool(const Tuple&)>& keep,
                          size_t limit) {
  OracleRun run;
  for (const std::vector<Tuple>& page : HeapPagesByHand(db, table)) {
    run.blocks_read++;
    for (const Tuple& row : page) {
      run.tuples++;  // every examined slot
      if (!keep(row)) continue;
      run.rows.push_back(row);
      if (run.rows.size() == limit) return run;
    }
  }
  return run;
}

/// LIMIT `limit` over a hash join that builds on `build` and probes with
/// `probe`: output rows are build ++ probe, in probe order, then build
/// order among one probe row's matches.
OracleRun OracleLimitHashJoin(Database* db, const TableInfo* build,
                              size_t build_key, const TableInfo* probe,
                              size_t probe_key, size_t limit) {
  OracleRun run;
  std::vector<Tuple> build_rows;
  size_t build_bytes = 0;
  for (std::vector<Tuple>& page : HeapPagesByHand(db, build)) {
    run.blocks_read++;
    for (Tuple& row : page) {
      run.tuples += 2;  // the build scan, then the join's build charge
      build_bytes += SerializedTupleSize(row);
      build_rows.push_back(std::move(row));
    }
  }
  // The oracle models no Grace spill: keep the build side in memory.
  EXPECT_LE(build_bytes,
            db->meter().config().hash_join_memory_pages * kPageSize);
  for (const std::vector<Tuple>& page : HeapPagesByHand(db, probe)) {
    run.blocks_read++;
    for (const Tuple& p : page) {
      run.tuples += 2;  // the probe scan, then the join's probe charge
      for (const Tuple& b : build_rows) {
        if (b[build_key].Compare(p[probe_key]) != 0) continue;
        run.tuples++;  // one per emitted match
        Tuple row = b;
        row.insert(row.end(), p.begin(), p.end());
        run.rows.push_back(std::move(row));
        if (run.rows.size() == limit) return run;
      }
    }
  }
  return run;
}

/// LIMIT `limit` over a nested-loop join: the inner side is read whole
/// at Init, then each outer row is charged once and each inner row it
/// is compared with once more.
OracleRun OracleLimitNestedLoop(Database* db, const TableInfo* outer,
                                const TableInfo* inner,
                                const std::function<bool(const Tuple&,
                                                         const Tuple&)>& match,
                                size_t limit) {
  OracleRun run;
  std::vector<Tuple> inner_rows;
  for (std::vector<Tuple>& page : HeapPagesByHand(db, inner)) {
    run.blocks_read++;
    for (Tuple& row : page) {
      run.tuples += 2;  // the inner scan, then the join's inner charge
      inner_rows.push_back(std::move(row));
    }
  }
  for (const std::vector<Tuple>& page : HeapPagesByHand(db, outer)) {
    run.blocks_read++;
    for (const Tuple& o : page) {
      run.tuples += 2;  // the outer scan, then the join's outer charge
      for (const Tuple& i : inner_rows) {
        run.tuples++;  // one per inner row examined
        if (!match(o, i)) continue;
        Tuple row = o;
        row.insert(row.end(), i.begin(), i.end());
        run.rows.push_back(std::move(row));
        if (run.rows.size() == limit) return run;
      }
    }
  }
  return run;
}

void ExpectMatchesOracle(const OracleRun& oracle, const RunOutcome& run,
                         size_t limit) {
  ASSERT_TRUE(run.status.ok()) << run.status.ToString();
  ASSERT_EQ(oracle.rows.size(), limit) << "input too small for the limit";
  ASSERT_EQ(run.rows.size(), oracle.rows.size());
  for (size_t i = 0; i < run.rows.size(); i++) {
    ASSERT_EQ(run.rows[i], oracle.rows[i]) << "row " << i;
  }
  EXPECT_EQ(run.tuples, oracle.tuples) << "CPU charge";
  EXPECT_EQ(run.blocks_read, oracle.blocks_read) << "read charge";
  EXPECT_EQ(run.blocks_written, 0u) << "write charge";
}

TEST(LimitOracleTest, ScanWithPushedPredicate) {
  constexpr size_t kLimit = 37;
  std::unique_ptr<Database> db(testutil::MakeTwoTableDb(900, 2700));
  TableInfo* r = db->catalog().GetTable("r");
  ASSERT_NE(r, nullptr);
  auto pred = BindSelection(
      Sel("r", "r_a", CompareOp::kLt, Value(static_cast<int64_t>(50))),
      r->schema);
  ASSERT_TRUE(pred.ok());
  OracleRun oracle = OracleLimitScan(
      db.get(), r, [](const Tuple& row) { return row[1].AsInt64() < 50; },
      kLimit);
  // The 37th survivor sits mid-table: the scan must stop early.
  ASSERT_LT(oracle.blocks_read, r->heap->page_count());
  for (size_t batch_size : {size_t{1}, kDefaultExecBatchSize}) {
    SCOPED_TRACE("batch_size " + std::to_string(batch_size));
    RunOutcome run = RunBatchPath(
        db.get(),
        [&] {
          return std::make_unique<LimitExecutor>(
              std::make_unique<SeqScanExecutor>(
                  r, &db->buffer_pool(), &db->meter(),
                  std::vector<BoundSelection>{*pred}),
              kLimit);
        },
        batch_size);
    ExpectMatchesOracle(oracle, run, kLimit);
  }
}

TEST(LimitOracleTest, PlannedHashJoin) {
  constexpr size_t kLimit = 37;
  std::unique_ptr<Database> db(testutil::MakeTwoTableDb(900, 2700));
  // The key join (each probe row matches once) and a many-to-many one
  // (a probe row matches several build rows, so the limit can fall
  // inside one probe row's matches).
  for (const JoinPred& pred :
       {testutil::RsJoin(), Join("r", "r_a", "s", "s_c")}) {
    SCOPED_TRACE(pred.left_column + " = " + pred.right_column);
    QueryGraph graph;
    graph.AddJoin(pred);
    auto plan = db->planner().Plan(graph, &db->views(), ViewMode::kNone);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    const PlanNode& root = *plan->root;
    ASSERT_EQ(root.kind, PlanNode::Kind::kHashJoin);
    ASSERT_EQ(root.join_columns.size(), 1u);
    ASSERT_EQ(root.left->kind, PlanNode::Kind::kSeqScan);
    ASSERT_EQ(root.right->kind, PlanNode::Kind::kSeqScan);
    ASSERT_TRUE(root.left->predicates.empty());
    ASSERT_TRUE(root.right->predicates.empty());
    const TableInfo* build = db->catalog().GetTable(root.left->table);
    const TableInfo* probe = db->catalog().GetTable(root.right->table);
    ASSERT_NE(build, nullptr);
    ASSERT_NE(probe, nullptr);
    auto build_key = build->schema.ColumnIndex(root.join_columns[0].first);
    auto probe_key = probe->schema.ColumnIndex(root.join_columns[0].second);
    ASSERT_TRUE(build_key.has_value());
    ASSERT_TRUE(probe_key.has_value());

    OracleRun oracle = OracleLimitHashJoin(db.get(), build, *build_key,
                                           probe, *probe_key, kLimit);
    ExecFactory join = PlannedFactory(db.get(), graph);
    for (size_t batch_size : {size_t{1}, kDefaultExecBatchSize}) {
      SCOPED_TRACE("batch_size " + std::to_string(batch_size));
      RunOutcome run = RunBatchPath(
          db.get(),
          [&] { return std::make_unique<LimitExecutor>(join(), kLimit); },
          batch_size);
      ExpectMatchesOracle(oracle, run, kLimit);
    }
  }
}

TEST(LimitOracleTest, NestedLoopJoin) {
  constexpr size_t kLimit = 37;
  std::unique_ptr<Database> db(testutil::MakeTwoTableDb(60, 80));
  OracleRun oracle = OracleLimitNestedLoop(
      db.get(), db->catalog().GetTable("r"), db->catalog().GetTable("s"),
      [](const Tuple& r, const Tuple& s) {
        return r[1].AsInt64() < s[2].AsInt64();
      },
      kLimit);
  ExecFactory nlj = NestedLoopFactory(db.get());
  for (size_t batch_size : {size_t{1}, kDefaultExecBatchSize}) {
    SCOPED_TRACE("batch_size " + std::to_string(batch_size));
    RunOutcome run = RunBatchPath(
        db.get(),
        [&] { return std::make_unique<LimitExecutor>(nlj(), kLimit); },
        batch_size);
    ExpectMatchesOracle(oracle, run, kLimit);
  }
}

/// Under a deterministic fault schedule, 1-row and 1024-row batches must
/// fail (or not) with the same status, the same rows-before-failure
/// drained total, and the same charges — the bit-identity guarantee
/// chaos schedules rely on. Seeded from SQP_CHAOS_SEED like the chaos
/// sweep.
TEST(ExecBatchDifferentialTest, FaultScheduleBitIdentical) {
  uint64_t base_seed = 1;
  if (const char* env = std::getenv("SQP_CHAOS_SEED")) {
    base_seed = static_cast<uint64_t>(std::strtoull(env, nullptr, 10));
  }
  // Small pool: the scan cannot cache the table, so "disk.read" fires
  // on real fetches in both runs.
  std::unique_ptr<Database> db(
      testutil::MakeTwoTableDb(3000, 6000, /*seed=*/5, /*pool_pages=*/32));
  QueryGraph graph;
  graph.AddJoin(testutil::RsJoin());
  graph.AddSelection(
      Sel("r", "r_a", CompareOp::kGe, Value(static_cast<int64_t>(10))));
  ExecFactory factory = PlannedFactory(db.get(), graph);

  Rng rng(base_seed);
  for (int round = 0; round < 6; round++) {
    SCOPED_TRACE("fault round " + std::to_string(round));
    uint64_t nth = 5 + rng.NextRange(120);

    FaultInjector::Global().Reset();
    FaultInjector::Global().Arm("disk.read", FaultSpec::EveryNth(nth));
    RunOutcome exact_run = RunBatchPath(db.get(), factory, 1);

    FaultInjector::Global().Reset();
    FaultInjector::Global().Arm("disk.read", FaultSpec::EveryNth(nth));
    RunOutcome batch_run = RunBatchPath(db.get(), factory, 1024);

    FaultInjector::Global().Reset();
    ExpectIdentical(exact_run, batch_run);
  }
}

/// exec.batch.* metrics: batches/rows counters advance and the fill
/// gauge stays within (0, target].
TEST(ExecBatchMetricsTest, CountersAdvance) {
  std::unique_ptr<Database> db(testutil::MakeTwoTableDb(2100, 100));
  TableInfo* r = db->catalog().GetTable("r");
  ASSERT_NE(r, nullptr);
  auto before = MetricsRegistry::Global().Snapshot();
  SeqScanExecutor scan(r, &db->buffer_pool(), &db->meter());
  auto rows = DrainExecutor(&scan);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 2100u);
  auto after = MetricsRegistry::Global().Snapshot();
  EXPECT_GT(after.counter("exec.batch.batches"),
            before.counter("exec.batch.batches"));
  EXPECT_GE(after.counter("exec.batch.rows"),
            before.counter("exec.batch.rows") + 2100);
  EXPECT_GT(after.counter("exec.batch.pages_pinned"),
            before.counter("exec.batch.pages_pinned"));
  EXPECT_GT(after.gauges.at("exec.batch.avg_fill"), 0.0);
}

}  // namespace
}  // namespace sqp
