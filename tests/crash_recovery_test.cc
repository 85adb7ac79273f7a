// Crash-restart durability (DESIGN.md §8): the write-cache + sync
// model, page checksums, manifest replay, and the engine's recovery
// hook. Ends with a randomized crash-schedule chaos harness asserting
// the three recovery invariants: committed results are bit-identical to
// a crash-free run, torn pages are always detected and never served,
// and recovery leaves zero orphan pages.
#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault_injector.h"
#include "common/metrics_registry.h"
#include "common/metrics_timeline.h"
#include "db/database.h"
#include "db/manifest.h"
#include "sim/sim_server.h"
#include "speculation/engine.h"
#include "test_util.h"
#include "trace/trace.h"

namespace sqp {
namespace {

using testutil::Join;
using testutil::RsJoin;
using testutil::Sel;

// ------------------------------------------------ disk durability model

class DiskCrashTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultInjector::Global().Reset(); }
  void TearDown() override { FaultInjector::Global().Reset(); }

  Page* Scratch() {
    scratch_.Init();
    return &scratch_;
  }

  CostMeter meter_;
  Page scratch_;
};

TEST_F(DiskCrashTest, StatusGuardsReplaceAsserts) {
  DiskManager disk(&meter_);
  EXPECT_EQ(disk.ReadPage(7, Scratch()).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(disk.WritePage(7, *Scratch()).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(disk.DeallocatePage(7).code(), StatusCode::kInvalidArgument);

  auto id = disk.AllocatePage();
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(disk.DeallocatePage(*id).ok());
  // Operations on a dead page are kNotFound, not UB.
  EXPECT_EQ(disk.DeallocatePage(*id).code(), StatusCode::kNotFound);
  EXPECT_EQ(disk.ReadPage(*id, Scratch()).code(), StatusCode::kNotFound);
  EXPECT_EQ(disk.WritePage(*id, *Scratch()).code(), StatusCode::kNotFound);
}

TEST_F(DiskCrashTest, SyncedWritesSurviveCrashUnsyncedTear) {
  DiskManager disk(&meter_);
  auto a = disk.AllocatePage();
  auto b = disk.AllocatePage();
  ASSERT_TRUE(a.ok() && b.ok());

  Page page;
  page.Init();
  page.Insert(reinterpret_cast<const uint8_t*>("durable"), 7);
  ASSERT_TRUE(disk.WritePage(*a, page).ok());
  ASSERT_TRUE(disk.Sync().ok());

  // An in-flight write to b at crash time: it tears (half the write
  // reaches the durable image, the checksum stays stale).
  Page flight;
  flight.Init();
  flight.Insert(reinterpret_cast<const uint8_t*>("in-flight"), 9);
  ASSERT_TRUE(disk.WritePage(*b, flight).ok());
  EXPECT_EQ(disk.unsynced_pages(), 1u);
  disk.SimulateCrash();
  disk.Restart();

  // The synced page is intact; the torn page is detected, never served.
  Page out;
  out.Init();
  ASSERT_TRUE(disk.ReadPage(*a, &out).ok());
  EXPECT_EQ(out.slot_count(), 1);
  Status torn = disk.ReadPage(*b, &out);
  EXPECT_EQ(torn.code(), StatusCode::kDataLoss);
  EXPECT_EQ(disk.torn_pages(), 1u);
  EXPECT_GE(disk.checksum_failures(), 1u);
}

// Durable images are checksum-verified once and then served from a
// per-page verified bit; the crash tear clears the bit, so a torn page
// must keep failing (and counting) on every read until it is rewritten.
TEST_F(DiskCrashTest, VerifyOnceNeverServesATornPage) {
  DiskManager disk(&meter_);
  auto a = disk.AllocatePage();
  auto b = disk.AllocatePage();
  ASSERT_TRUE(a.ok() && b.ok());

  Page page;
  page.Init();
  page.Insert(reinterpret_cast<const uint8_t*>("durable"), 7);
  ASSERT_TRUE(disk.WritePage(*a, page).ok());
  ASSERT_TRUE(disk.WritePage(*b, page).ok());
  ASSERT_TRUE(disk.Sync().ok());
  Page out;
  ASSERT_TRUE(disk.ReadPage(*a, &out).ok());  // a verified pre-crash
  ASSERT_TRUE(disk.ReadPage(*b, &out).ok());  // so is b's old image

  Page flight;
  flight.Init();
  flight.Insert(reinterpret_cast<const uint8_t*>("in-flight"), 9);
  ASSERT_TRUE(disk.WritePage(*b, flight).ok());
  disk.SimulateCrash();
  disk.Restart();
  ASSERT_EQ(disk.torn_pages(), 1u);

  // Every read fails and counts.
  const uint64_t failures = disk.checksum_failures();
  EXPECT_EQ(disk.ReadPage(*b, &out).code(), StatusCode::kDataLoss);
  EXPECT_EQ(disk.ReadPage(*b, &out).code(), StatusCode::kDataLoss);
  EXPECT_EQ(disk.checksum_failures(), failures + 2);

  // The page verified before the crash is still served after Restart().
  out.Init();
  ASSERT_TRUE(disk.ReadPage(*a, &out).ok());
  EXPECT_EQ(std::memcmp(out.raw(), page.raw(), kPageSize), 0);

  // Rewritten and synced, the torn page reads clean again.
  ASSERT_TRUE(disk.WritePage(*b, flight).ok());
  ASSERT_TRUE(disk.Sync().ok());
  out.Init();
  ASSERT_TRUE(disk.ReadPage(*b, &out).ok());
  EXPECT_EQ(std::memcmp(out.raw(), flight.raw(), kPageSize), 0);
  EXPECT_EQ(disk.checksum_failures(), failures + 2);
}

TEST_F(DiskCrashTest, OlderUnsyncedWritesAreCleanlyLost) {
  DiskManager disk(&meter_);
  auto a = disk.AllocatePage();
  auto b = disk.AllocatePage();
  ASSERT_TRUE(a.ok() && b.ok());

  Page v1;
  v1.Init();
  v1.Insert(reinterpret_cast<const uint8_t*>("v1"), 2);
  ASSERT_TRUE(disk.WritePage(*a, v1).ok());
  ASSERT_TRUE(disk.Sync().ok());

  // A newer version of a sits in the cache, but the *last* in-flight
  // write is to b — so a's update is cleanly discarded, not torn.
  Page v2 = v1;
  v2.Insert(reinterpret_cast<const uint8_t*>("v2"), 2);
  ASSERT_TRUE(disk.WritePage(*a, v2).ok());
  ASSERT_TRUE(disk.WritePage(*b, v1).ok());
  disk.SimulateCrash();
  disk.Restart();

  Page out;
  out.Init();
  ASSERT_TRUE(disk.ReadPage(*a, &out).ok());
  EXPECT_EQ(out.slot_count(), 1);  // v1, not v2
}

TEST_F(DiskCrashTest, CrashedDiskRefusesEverythingUntilRestart) {
  DiskManager disk(&meter_);
  auto id = disk.AllocatePage();
  ASSERT_TRUE(id.ok());
  disk.SimulateCrash();
  EXPECT_TRUE(disk.has_crashed());
  EXPECT_EQ(disk.AllocatePage().status().code(), StatusCode::kDataLoss);
  EXPECT_EQ(disk.ReadPage(*id, Scratch()).code(), StatusCode::kDataLoss);
  EXPECT_EQ(disk.WritePage(*id, *Scratch()).code(), StatusCode::kDataLoss);
  EXPECT_EQ(disk.Sync().code(), StatusCode::kDataLoss);
  EXPECT_EQ(disk.DeallocatePage(*id).code(), StatusCode::kDataLoss);
  disk.Restart();
  EXPECT_FALSE(disk.has_crashed());
  EXPECT_TRUE(disk.ReadPage(*id, Scratch()).ok());
}

TEST_F(DiskCrashTest, CrashFaultPointKillsTheDiskMidWrite) {
  DiskManager disk(&meter_);
  auto id = disk.AllocatePage();
  ASSERT_TRUE(id.ok());
  FaultSpec spec = FaultSpec::OneShot(1, StatusCode::kDataLoss);
  spec.only_in_region = false;
  FaultInjector::Global().Arm("disk.crash", spec);
  Page page;
  page.Init();
  page.Insert(reinterpret_cast<const uint8_t*>("doomed"), 6);
  Status write = disk.WritePage(*id, page);
  EXPECT_EQ(write.code(), StatusCode::kDataLoss);
  EXPECT_TRUE(disk.has_crashed());
  // The in-flight write became the tear candidate.
  disk.Restart();
  Page out;
  out.Init();
  EXPECT_EQ(disk.ReadPage(*id, &out).code(), StatusCode::kDataLoss);
}

// ------------------------------------------------------------- manifest

TEST(ManifestTest, CommitIsAtomic) {
  Manifest manifest;
  Schema schema({{"x", TypeId::kInt64}});
  manifest.Append(ManifestRecord::CreateTable("t", schema, false));
  manifest.Append(ManifestRecord::BulkLoadCommit("t", {0, 1}, 10));
  EXPECT_EQ(manifest.staged_count(), 2u);
  EXPECT_EQ(manifest.committed_count(), 0u);

  // A crash discards the whole staged group...
  manifest.DropUncommitted();
  EXPECT_EQ(manifest.staged_count(), 0u);
  EXPECT_EQ(manifest.committed_count(), 0u);

  // ...and a commit makes it durable as one unit.
  manifest.Append(ManifestRecord::CreateTable("t", schema, false));
  manifest.Append(ManifestRecord::BulkLoadCommit("t", {0, 1}, 10));
  manifest.Commit();
  EXPECT_EQ(manifest.committed_count(), 2u);
  manifest.Append(ManifestRecord::DropTable("t"));
  manifest.DropUncommitted();
  EXPECT_EQ(manifest.committed_count(), 2u);
}

TEST(ManifestTest, FoldSupersedesAndDropsDependents) {
  Schema schema({{"x", TypeId::kInt64}});
  std::vector<ManifestRecord> records;
  records.push_back(ManifestRecord::CreateTable("t", schema, false));
  records.push_back(ManifestRecord::BulkLoadCommit("t", {0, 1}, 10));
  records.push_back(ManifestRecord::CreateIndex("t", "x"));
  records.push_back(ManifestRecord::CreateHistogram("t", "x"));
  // A later load supersedes the earlier page list; the index is dropped.
  records.push_back(ManifestRecord::BulkLoadCommit("t", {0, 1, 2}, 15));
  records.push_back(ManifestRecord::DropIndex("t", "x"));

  ManifestFoldResult fold = FoldManifest(records);
  ASSERT_EQ(fold.tables.size(), 1u);
  const ManifestTableState& state = fold.tables[0].second;
  EXPECT_EQ(state.pages, (std::vector<page_id_t>{0, 1, 2}));
  EXPECT_EQ(state.tuple_count, 15u);
  EXPECT_TRUE(state.index_columns.empty());
  EXPECT_EQ(state.histogram_columns,
            (std::vector<std::string>{"x"}));

  records.push_back(ManifestRecord::DropTable("t"));
  EXPECT_TRUE(FoldManifest(records).tables.empty());
}

// --------------------------------------------------- database recovery

/// Sum of heap pages across every catalog table: recovery's "no orphan
/// pages" invariant states this equals the disk's live-page count.
uint64_t CatalogPages(const Database& db) {
  uint64_t total = 0;
  for (const auto& name : db.catalog().TableNames()) {
    total += db.catalog().GetTable(name)->heap->page_count();
  }
  return total;
}

/// Order-insensitive row rendering (plan-independent): columns sorted by
/// name, rows sorted lexicographically.
std::vector<std::string> RowSet(const QueryResult& result) {
  std::vector<size_t> order(result.schema.size());
  for (size_t i = 0; i < order.size(); i++) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return result.schema.column(a).name < result.schema.column(b).name;
  });
  std::vector<std::string> rows;
  rows.reserve(result.rows.size());
  for (const Tuple& tuple : result.rows) {
    std::string s;
    for (size_t i : order) {
      s += result.schema.column(i).name;
      s += '=';
      s += tuple[i].ToString();
      s += '|';
    }
    rows.push_back(std::move(s));
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

class DatabaseCrashTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultInjector::Global().Reset(); }
  void TearDown() override { FaultInjector::Global().Reset(); }

  QueryGraph JoinQuery() {
    QueryGraph q;
    q.AddJoin(RsJoin());
    q.AddSelection(Sel("r", "r_a", CompareOp::kLt, Value(int64_t{40})));
    return q;
  }
};

TEST_F(DatabaseCrashTest, ReopenRestoresCommittedStateBitIdentically) {
  std::unique_ptr<Database> db(testutil::MakeTwoTableDb(400, 1200));
  ASSERT_TRUE(db->CreateIndex("r", "r_a").ok());
  ASSERT_TRUE(db->CreateHistogram("s", "s_c").ok());

  ExecuteOptions exec;
  exec.keep_rows = true;
  auto before = db->Execute(JoinQuery(), exec);
  ASSERT_TRUE(before.ok());
  const uint64_t pages_before = db->disk_manager().live_pages();

  db->SimulateCrash();
  ASSERT_TRUE(db->Reopen().ok());
  const RecoveryStats& stats = db->last_recovery();
  EXPECT_EQ(stats.tables_recovered, 2u);
  EXPECT_EQ(stats.indexes_rebuilt, 1u);
  EXPECT_EQ(stats.histograms_rebuilt, 1u);
  EXPECT_EQ(stats.corrupt_matviews_dropped, 0u);
  EXPECT_EQ(stats.orphan_pages_collected, 0u);
  EXPECT_TRUE(db->catalog().HasIndex("r", "r_a"));
  EXPECT_NE(db->catalog().GetHistogram("s", "s_c"), nullptr);
  EXPECT_EQ(db->disk_manager().live_pages(), pages_before);

  auto after = db->Execute(JoinQuery(), exec);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(RowSet(*after), RowSet(*before));
}

TEST_F(DatabaseCrashTest, CrashMidBulkLoadKeepsTheCommittedVersion) {
  std::unique_ptr<Database> db(testutil::MakeTwoTableDb(300, 900));
  const uint64_t committed_rows =
      db->catalog().GetTable("s")->heap->tuple_count();
  const uint64_t pages_before = db->disk_manager().live_pages();

  // A second load into a *fresh* table dies with writes in flight.
  Schema schema({{"x", TypeId::kInt64}, {"y", TypeId::kInt64}});
  ASSERT_TRUE(db->CreateTable("incoming", schema).ok());
  std::vector<Tuple> rows;
  for (int64_t i = 0; i < 4000; i++) {
    rows.push_back(Tuple{Value(i), Value(i * 2)});
  }
  FaultSpec spec = FaultSpec::OneShot(2, StatusCode::kDataLoss);
  spec.only_in_region = false;
  FaultInjector::Global().Arm("disk.crash", spec);
  Status load = db->BulkLoad("incoming", rows);
  ASSERT_FALSE(load.ok());
  ASSERT_TRUE(db->disk_manager().has_crashed());
  FaultInjector::Global().Reset();

  ASSERT_TRUE(db->Reopen().ok());
  // The committed CreateTable survives; the uncommitted load does not.
  const TableInfo* incoming = db->catalog().GetTable("incoming");
  ASSERT_NE(incoming, nullptr);
  EXPECT_EQ(incoming->heap->tuple_count(), 0u);
  // Its half-written pages were orphans: collected without being read.
  EXPECT_GT(db->last_recovery().orphan_pages_collected, 0u);
  EXPECT_EQ(db->disk_manager().live_pages(), pages_before);
  // The pre-existing tables are untouched.
  EXPECT_EQ(db->catalog().GetTable("s")->heap->tuple_count(),
            committed_rows);

  // The load can simply be retried after recovery.
  ASSERT_TRUE(db->BulkLoad("incoming", rows).ok());
  EXPECT_EQ(db->catalog().GetTable("incoming")->heap->tuple_count(),
            rows.size());
}

TEST_F(DatabaseCrashTest, CrashMidMaterializeLeavesNoCommittedTrace) {
  std::unique_ptr<Database> db(testutil::MakeTwoTableDb(400, 1200));
  const uint64_t pages_before = db->disk_manager().live_pages();

  FaultSpec spec = FaultSpec::OneShot(3, StatusCode::kDataLoss);
  spec.only_in_region = false;
  FaultInjector::Global().Arm("disk.crash", spec);
  auto result = db->Materialize(JoinQuery(), "mv_doomed");
  ASSERT_FALSE(result.ok());
  FaultInjector::Global().Reset();

  ASSERT_TRUE(db->Reopen().ok());
  EXPECT_EQ(db->catalog().GetTable("mv_doomed"), nullptr);
  EXPECT_FALSE(db->views().Contains("mv_doomed"));
  EXPECT_GT(db->last_recovery().orphan_pages_collected, 0u);
  EXPECT_EQ(db->disk_manager().live_pages(), pages_before);
  EXPECT_EQ(CatalogPages(*db), pages_before);
}

TEST_F(DatabaseCrashTest, TornCommittedMatviewIsDroppedAtRecovery) {
  std::unique_ptr<Database> db(testutil::MakeTwoTableDb(400, 1200));
  const uint64_t base_pages = db->disk_manager().live_pages();
  ASSERT_TRUE(db->Materialize(JoinQuery(), "mv_torn").ok());
  const TableInfo* mv = db->catalog().GetTable("mv_torn");
  ASSERT_NE(mv, nullptr);
  ASSERT_FALSE(mv->heap->pages().empty());
  const page_id_t victim = mv->heap->pages().front();

  // Rewrite one committed matview page; crash with the write in flight
  // so it tears (half-new bytes under the old checksum).
  auto page = db->buffer_pool().FetchPage(victim);
  ASSERT_TRUE(page.ok());
  (*page)->Insert(reinterpret_cast<const uint8_t*>("garbage"), 7);
  db->buffer_pool().UnpinPage(victim, /*dirty=*/true);
  ASSERT_TRUE(db->buffer_pool().FlushPage(victim).ok());
  db->SimulateCrash();
  EXPECT_EQ(db->disk_manager().torn_pages(), 1u);

  ASSERT_TRUE(db->Reopen().ok());
  // The torn page was detected during validation; the matview is
  // disposable, so recovery dropped it instead of failing.
  EXPECT_EQ(db->last_recovery().corrupt_matviews_dropped, 1u);
  EXPECT_GE(db->last_recovery().torn_pages_detected, 1u);
  EXPECT_EQ(db->catalog().GetTable("mv_torn"), nullptr);
  EXPECT_FALSE(db->views().Contains("mv_torn"));
  EXPECT_EQ(db->disk_manager().live_pages(), base_pages);

  // Queries keep working (without the view).
  ExecuteOptions exec;
  exec.keep_rows = true;
  EXPECT_TRUE(db->Execute(JoinQuery(), exec).ok());
}

TEST_F(DatabaseCrashTest, TornBaseTableIsUnrecoverableDataLoss) {
  std::unique_ptr<Database> db(testutil::MakeTwoTableDb(200, 600));
  const page_id_t victim = db->catalog().GetTable("r")->heap->pages().front();
  auto page = db->buffer_pool().FetchPage(victim);
  ASSERT_TRUE(page.ok());
  (*page)->Insert(reinterpret_cast<const uint8_t*>("garbage"), 7);
  db->buffer_pool().UnpinPage(victim, /*dirty=*/true);
  ASSERT_TRUE(db->buffer_pool().FlushPage(victim).ok());
  db->SimulateCrash();

  // A torn page in a committed *base* table cannot be recreated: Reopen
  // surfaces the loss rather than serving corrupt data.
  Status reopened = db->Reopen();
  EXPECT_EQ(reopened.code(), StatusCode::kDataLoss);
}

// ----------------------------------------------------- engine recovery

class EngineCrashTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FaultInjector::Global().Reset();
    db_.reset(testutil::MakeTwoTableDb(400, 1200));
    base_pages_ = db_->disk_manager().live_pages();
  }
  void TearDown() override { FaultInjector::Global().Reset(); }

  QueryGraph SelQuery() {
    QueryGraph q;
    q.AddSelection(Sel("r", "r_a", CompareOp::kLt, Value(int64_t{10})));
    return q;
  }

  std::unique_ptr<Database> db_;
  SimServer server_;
  uint64_t base_pages_ = 0;
};

TEST_F(EngineCrashTest, AdoptsRegisteredSurvivorsDropsUnregistered) {
  // Simulate the engine's durable leftovers: one completed + registered
  // speculative view, one built but never registered (the crash hit
  // between materialization commit and simulated completion).
  ASSERT_TRUE(
      db_->Materialize(SelQuery(), "spec_mv_3", /*register_view=*/true)
          .ok());
  QueryGraph unregistered;
  unregistered.AddSelection(
      Sel("s", "s_c", CompareOp::kLt, Value(int64_t{10})));
  ASSERT_TRUE(db_->Materialize(unregistered, "spec_mv_7",
                               /*register_view=*/false)
                  .ok());

  db_->SimulateCrash();
  ASSERT_TRUE(db_->Reopen().ok());
  ASSERT_NE(db_->catalog().GetTable("spec_mv_3"), nullptr);
  ASSERT_NE(db_->catalog().GetTable("spec_mv_7"), nullptr);

  SpeculationEngine engine(db_.get(), &server_, {});
  ASSERT_TRUE(engine.RecoverAfterCrash(5.0).ok());
  EXPECT_EQ(engine.stats().views_recovered, 1u);
  EXPECT_EQ(engine.stats().views_dropped_at_recovery, 1u);
  EXPECT_EQ(engine.live_views(), (std::vector<std::string>{"spec_mv_3"}));
  EXPECT_EQ(db_->catalog().GetTable("spec_mv_7"), nullptr);

  // Shutdown drops the adopted view too: nothing leaks.
  ASSERT_TRUE(engine.Shutdown().ok());
  EXPECT_EQ(db_->views().size(), 0u);
  EXPECT_EQ(db_->catalog().MaterializedTableNames().size(), 0u);
  EXPECT_EQ(db_->disk_manager().live_pages(), base_pages_);
}

TEST_F(EngineCrashTest, RecoveryBumpsNameCounterPastSurvivors) {
  ASSERT_TRUE(
      db_->Materialize(SelQuery(), "spec_mv_9", /*register_view=*/true)
          .ok());
  db_->SimulateCrash();
  ASSERT_TRUE(db_->Reopen().ok());

  SpeculationEngine engine(db_.get(), &server_, {});
  ASSERT_TRUE(engine.RecoverAfterCrash(1.0).ok());
  // New manipulations must not collide with the adopted survivor: run a
  // formulation and check every materialized table name stays unique.
  TraceEvent add;
  add.type = TraceEventType::kAddSelection;
  add.selection = Sel("r", "r_a", CompareOp::kLt, Value(int64_t{3}));
  ASSERT_TRUE(engine.OnUserEvent(add, 2.0).ok());
  server_.AdvanceTo(200.0);
  ASSERT_TRUE(engine.OnQueryResult(200.0).ok());
  auto names = db_->catalog().MaterializedTableNames();
  std::sort(names.begin(), names.end());
  EXPECT_TRUE(std::adjacent_find(names.begin(), names.end()) == names.end());
  ASSERT_TRUE(engine.Shutdown().ok());
  EXPECT_EQ(db_->disk_manager().live_pages(), base_pages_);
}

// ------------------------------------------------ randomized schedules

TraceEvent SelAdd(SelectionPred s) {
  TraceEvent e;
  e.type = TraceEventType::kAddSelection;
  e.selection = std::move(s);
  return e;
}

TraceEvent SelDel(SelectionPred s) {
  TraceEvent e;
  e.type = TraceEventType::kRemoveSelection;
  e.selection = std::move(s);
  return e;
}

TraceEvent JoinAdd(JoinPred j) {
  TraceEvent e;
  e.type = TraceEventType::kAddJoin;
  e.join = std::move(j);
  return e;
}

/// Deterministic synthetic session over the r/s schema (a compact
/// version of chaos_test's generator): formulations of 1-3 selections,
/// optional join, churn edits, GOs, inter-query retention.
Trace MakeCrashTrace(uint64_t seed) {
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 3);
  Trace trace;
  trace.user_id = seed;
  trace.seed = seed;
  double t = 1.0;
  auto emit = [&](TraceEvent e) {
    t += rng.NextDouble(0.5, 6.0);
    e.timestamp = t;
    trace.events.push_back(std::move(e));
  };

  const bool use_join = rng.NextBool(0.7);
  bool join_present = false;
  std::vector<SelectionPred> present;
  int64_t next_r = 3, next_s = 2;
  auto draw_sel = [&](bool on_s) {
    if (on_s) {
      next_s += 3;
      return Sel("s", "s_c", CompareOp::kLt, Value(next_s));
    }
    next_r += 5;
    return Sel("r", "r_a", CompareOp::kLt, Value(next_r));
  };

  const size_t queries = 4 + rng.NextRange(3);
  for (size_t q = 0; q < queries; q++) {
    if (use_join && !join_present) {
      emit(JoinAdd(RsJoin()));
      join_present = true;
    }
    bool has_r = false;
    for (const auto& s : present) has_r |= s.table == "r";
    size_t adds = (has_r ? 0 : 1) + rng.NextRange(2);
    for (size_t a = 0; a < adds || !has_r; a++) {
      bool on_s = join_present && rng.NextBool(0.4) && has_r;
      SelectionPred sel = draw_sel(on_s);
      present.push_back(sel);
      has_r |= sel.table == "r";
      emit(SelAdd(sel));
    }
    if (rng.NextBool(0.4)) {
      SelectionPred churn = draw_sel(join_present);
      emit(SelAdd(churn));
      emit(SelDel(churn));
    }
    TraceEvent go;
    go.type = TraceEventType::kGo;
    emit(go);
    for (size_t i = present.size(); i-- > 0;) {
      if (rng.NextBool(0.35)) {
        emit(SelDel(present[i]));
        present.erase(present.begin() + i);
      }
    }
  }
  return trace;
}

struct CrashRunResult {
  std::vector<std::vector<std::string>> results;
  size_t crashes = 0;
};

/// Replay one trace with crash recovery: the disk may die at any write
/// or sync (armed "disk.crash" fault), and the session driver may pull
/// the plug at random event boundaries. Every crash is followed by
/// Database::Reopen() + SpeculationEngine::RecoverAfterCrash(), after
/// which the "zero orphan pages" invariant is checked.
Result<CrashRunResult> RunCrashSession(
    Database* db, const Trace& trace,
    const SpeculationEngineOptions& options, uint64_t seed, bool inject,
    MetricsTimeline* timeline = nullptr) {
  SQP_RETURN_IF_ERROR(db->ColdStart());
  SimServer server;
  if (timeline != nullptr) {
    timeline->BeginEpoch("");
    server.set_timeline(timeline);
  }
  SpeculationEngine engine(db, &server, options);
  Rng rng(seed * 0x6a09e667f3bcc909ULL + 5);
  CrashRunResult out;
  double exec_offset = 0;

  auto recover = [&](double sim_time) -> Status {
    out.crashes++;
    SQP_RETURN_IF_ERROR(db->Reopen());
    SQP_RETURN_IF_ERROR(engine.RecoverAfterCrash(sim_time));
    if (db->disk_manager().live_pages() != CatalogPages(*db)) {
      return Status::Internal("orphan pages survived recovery");
    }
    return Status::OK();
  };

  for (const auto& event : trace.events) {
    double sim_time = event.timestamp + exec_offset;
    server.AdvanceTo(sim_time);
    if (inject && rng.NextBool(0.06)) {
      db->SimulateCrash();  // plug pulled between operations
      SQP_RETURN_IF_ERROR(recover(sim_time));
    }
    if (event.type != TraceEventType::kGo) {
      SQP_RETURN_IF_ERROR(engine.OnUserEvent(event, sim_time));
      if (db->disk_manager().has_crashed()) {
        SQP_RETURN_IF_ERROR(recover(sim_time));
      }
      continue;
    }
    QueryGraph final_query = engine.partial();
    auto submit_time = engine.OnGo(sim_time);
    if (!submit_time.ok()) return submit_time.status();
    if (db->disk_manager().has_crashed()) {
      SQP_RETURN_IF_ERROR(recover(sim_time));
    }
    if (*submit_time > sim_time) {
      server.AdvanceTo(*submit_time);
      SQP_RETURN_IF_ERROR(engine.ResolveWait(*submit_time));
    }
    ExecuteOptions exec;
    exec.keep_rows = true;
    exec.view_mode = options.enabled ? engine.final_view_mode()
                                     : ViewMode::kCostBased;
    auto result = db->Execute(final_query, exec);
    if (!result.ok()) {
      // A crash mid-query (eviction write died): recover and re-run.
      if (!db->disk_manager().has_crashed()) return result.status();
      SQP_RETURN_IF_ERROR(recover(sim_time));
      result = db->Execute(final_query, exec);
      if (!result.ok()) return result.status();
    }
    SimServer::JobId job = server.Submit(result->seconds);
    double done = server.RunUntilComplete(job);
    exec_offset += done - sim_time;
    SQP_RETURN_IF_ERROR(engine.OnQueryResult(done));
    if (db->disk_manager().has_crashed()) {
      SQP_RETURN_IF_ERROR(recover(done));
    }
    out.results.push_back(RowSet(*result));
  }
  SQP_RETURN_IF_ERROR(engine.Shutdown());
  if (timeline != nullptr) timeline->Flush(server.now());
  return out;
}

TEST(CrashChaosTest, RandomizedCrashSchedulesRecoverToBaseline) {
  uint64_t base_seed = 1;
  if (const char* env = std::getenv("SQP_CRASH_SEED")) {
    base_seed = static_cast<uint64_t>(std::strtoull(env, nullptr, 10));
  }
  // Two identically-seeded databases: one never crashes (the oracle),
  // one runs every schedule with crashes injected.
  std::unique_ptr<Database> oracle(testutil::MakeTwoTableDb(600, 1800));
  std::unique_ptr<Database> db(testutil::MakeTwoTableDb(600, 1800));
  const uint64_t base_pages = db->disk_manager().live_pages();
  FaultInjector::Global().Reset();

  size_t total_crashes = 0;
  for (uint64_t i = 0; i < 10; i++) {
    const uint64_t seed = base_seed * 1000 + i;
    SCOPED_TRACE("crash seed " + std::to_string(seed));
    Trace trace = MakeCrashTrace(seed);

    // Crash-free baseline: speculation off, no faults.
    SpeculationEngineOptions off;
    off.enabled = false;
    auto baseline =
        RunCrashSession(oracle.get(), trace, off, seed, /*inject=*/false);
    ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
    ASSERT_EQ(baseline->crashes, 0u);

    // Crash run: speculation on, the disk armed to die at a random
    // write/sync, plus plug-pulls at random event boundaries.
    Rng arm_rng(seed * 7919 + 23);
    FaultInjector& injector = FaultInjector::Global();
    injector.Reset();
    injector.Seed(seed * 31 + 7);
    FaultSpec crash = FaultSpec::Probability(
        arm_rng.NextDouble(0.001, 0.01), StatusCode::kDataLoss);
    crash.only_in_region = false;
    injector.Arm("disk.crash", crash);

    SpeculationEngineOptions on;
    on.enabled = true;
    on.max_retries = 1;
    on.retry_backoff_seconds = 0.25;
    on.circuit_breaker_threshold = 4;
    on.circuit_breaker_cooldown_seconds = 15.0;
    auto crashed =
        RunCrashSession(db.get(), trace, on, seed, /*inject=*/true);
    FaultInjector::Global().Reset();
    ASSERT_TRUE(crashed.ok()) << crashed.status().ToString();
    total_crashes += crashed->crashes;

    // (a) Committed results bit-identical to the crash-free run.
    ASSERT_EQ(crashed->results.size(), baseline->results.size());
    for (size_t q = 0; q < baseline->results.size(); q++) {
      EXPECT_EQ(crashed->results[q], baseline->results[q])
          << "query " << q << " diverged after crash recovery";
    }

    // (b) The session left no residue: every speculative table, view,
    // and page is gone, committed state intact.
    EXPECT_EQ(db->views().size(), 0u);
    EXPECT_EQ(db->catalog().MaterializedTableNames().size(), 0u);
    ASSERT_EQ(db->disk_manager().live_pages(), base_pages);
  }
  // The sweep must actually have crashed somewhere, or it proved
  // nothing.
  EXPECT_GT(total_crashes, 0u);
  // (c) Torn pages were only ever *detected* (kDataLoss), never served:
  // every detection incremented this counter and every served read
  // passed its checksum — divergence would have failed (a) above.
  SUCCEED() << "checksum failures handled: "
            << db->disk_manager().checksum_failures();
}

/// The telemetry dump is part of the determinism contract (DESIGN.md
/// §16): the same crash schedule replayed twice — same trace, same
/// fault seed, fresh identically-seeded database — yields a
/// byte-identical timeline-series dump. Crash/recovery work lands in
/// the sampled series at exactly the same ticks both times.
TEST(CrashChaosTest, TimelineSeriesDeterministicUnderCrashSchedules) {
  uint64_t base_seed = 1;
  if (const char* env = std::getenv("SQP_CRASH_SEED")) {
    base_seed = static_cast<uint64_t>(std::strtoull(env, nullptr, 10));
  }
  const uint64_t seed = base_seed * 1000 + 3;
  Trace trace = MakeCrashTrace(seed);

  SpeculationEngineOptions on;
  on.enabled = true;
  on.max_retries = 1;
  on.retry_backoff_seconds = 0.25;
  on.circuit_breaker_threshold = 4;
  on.circuit_breaker_cooldown_seconds = 15.0;

  std::string base_csv;
  size_t base_crashes = 0;
  // Run 0 is a warm-up: recovery and learner families register lazily
  // on their first use, and a series must exist before a run starts for
  // its ticks to be comparable. Runs 1 and 2 are the differential.
  for (int run = 0; run < 3; run++) {
    SCOPED_TRACE("run " + std::to_string(run));
    // Zero the global registry so cumulative values (not just deltas)
    // start from the same baseline both times.
    MetricsRegistry::Global().ResetAll();
    std::unique_ptr<Database> db(testutil::MakeTwoTableDb(600, 1800));
    FaultInjector& injector = FaultInjector::Global();
    injector.Reset();
    injector.Seed(seed * 31 + 7);
    FaultSpec crash =
        FaultSpec::Probability(0.008, StatusCode::kDataLoss);
    crash.only_in_region = false;
    injector.Arm("disk.crash", crash);

    MetricsTimeline timeline;
    auto out = RunCrashSession(db.get(), trace, on, seed, /*inject=*/true,
                               &timeline);
    FaultInjector::Global().Reset();
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    EXPECT_GT(timeline.tick_count(), 2u);
    if (run == 0) continue;
    if (run == 1) {
      base_csv = timeline.FormatCsv();
      base_crashes = out->crashes;
    } else {
      EXPECT_EQ(out->crashes, base_crashes);
      EXPECT_EQ(timeline.FormatCsv(), base_csv)
          << "timeline series diverged across identical crash replays";
    }
  }
}

}  // namespace
}  // namespace sqp
