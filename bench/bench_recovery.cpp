// Node-loss recovery time on a sharded storage tier.
//
// Builds a 4-node (quorum-3) database with the canonical r/s pair plus
// a committed index and histogram, then measures the simulated seconds
// `Database::Reopen()` charges (validation scans, catch-up, orphan GC)
// in two situations: a clean restart with all nodes alive, and a
// restart after permanently losing each of the four nodes in turn (a
// fresh database per victim — node loss is permanent). Every recovered
// database must answer the canonical join with the same row count as
// the intact one and pass the per-node orphan audit.
//
// Output is bench_compare.py-friendly: the `recovery.*` lines are the
// gated lower-is-better headline metrics (--gate-lower), so a change
// that makes recovery charge more simulated time past the threshold
// fails the comparison. Simulated seconds are deterministic, so an
// unchanged tree diffs to exactly zero.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "db/database.h"
#include "optimizer/query_graph.h"

using namespace sqp;

namespace {

constexpr size_t kRowsR = 2000;
constexpr size_t kRowsS = 6000;
constexpr size_t kNodes = 4;

std::unique_ptr<Database> BuildShardedDb() {
  DatabaseOptions options;
  options.buffer_pool_pages = 256;
  options.storage_nodes = kNodes;  // quorum defaults to a majority: 3
  auto db = std::make_unique<Database>(options);

  Schema r_schema({{"r_id", TypeId::kInt64},
                   {"r_a", TypeId::kInt64},
                   {"r_b", TypeId::kDouble},
                   {"r_s", TypeId::kString}});
  Schema s_schema({{"s_id", TypeId::kInt64},
                   {"s_rid", TypeId::kInt64},
                   {"s_c", TypeId::kInt64}});
  if (!db->CreateTable("r", r_schema).ok() ||
      !db->CreateTable("s", s_schema).ok()) {
    std::fprintf(stderr, "table setup failed\n");
    std::exit(1);
  }

  Rng rng(7);
  const char* strs[] = {"alpha", "beta", "gamma"};
  std::vector<Tuple> r_rows;
  r_rows.reserve(kRowsR);
  for (size_t i = 0; i < kRowsR; i++) {
    r_rows.push_back(Tuple{Value(static_cast<int64_t>(i)),
                           Value(rng.NextInt(0, 99)),
                           Value(rng.NextDouble(0, 1000)),
                           Value(std::string(strs[i % 3]))});
  }
  std::vector<Tuple> s_rows;
  s_rows.reserve(kRowsS);
  for (size_t i = 0; i < kRowsS; i++) {
    s_rows.push_back(Tuple{
        Value(static_cast<int64_t>(i)),
        Value(rng.NextInt(0, static_cast<int64_t>(kRowsR) - 1)),
        Value(rng.NextInt(0, 49))});
  }
  if (!db->BulkLoad("r", r_rows).ok() || !db->BulkLoad("s", s_rows).ok() ||
      !db->CreateIndex("r", "r_id").ok() ||
      !db->CreateHistogram("s", "s_c").ok()) {
    std::fprintf(stderr, "load / ddl failed\n");
    std::exit(1);
  }
  return db;
}

QueryGraph JoinQuery() {
  JoinPred join{"r", "r_id", "s", "s_rid"};
  join.Canonicalize();
  SelectionPred sel;
  sel.table = "r";
  sel.column = "r_a";
  sel.op = CompareOp::kLt;
  sel.constant = Value(int64_t{40});
  QueryGraph q;
  q.AddJoin(join);
  q.AddSelection(sel);
  return q;
}

uint64_t RowCount(Database* db) {
  auto result = db->Execute(JoinQuery());
  if (!result.ok()) {
    std::fprintf(stderr, "query failed: %s\n",
                 result.status().ToString().c_str());
    std::exit(1);
  }
  return result->row_count;
}

}  // namespace

int main() {
  std::printf("node-loss recovery: %zu-node tier, quorum %zu, r=%zu s=%zu\n",
              kNodes, kNodes / 2 + 1, kRowsR, kRowsS);

  // Reference row count from an intact database, and the cost of a
  // clean restart (no node lost: manifest replay + validation only).
  uint64_t expected_rows = 0;
  double reopen_seconds = 0;
  {
    auto db = BuildShardedDb();
    expected_rows = RowCount(db.get());
    if (!db->Reopen().ok()) {
      std::fprintf(stderr, "clean reopen failed\n");
      return 1;
    }
    reopen_seconds = db->last_recovery().recovery_sim_seconds;
    if (RowCount(db.get()) != expected_rows) {
      std::fprintf(stderr, "clean reopen changed results\n");
      return 1;
    }
  }

  // Kill each node in turn on a fresh database and time the failover
  // recovery. The recovered tier must still answer the join correctly
  // and leave zero orphan physical pages on every survivor.
  double mean_seconds = 0;
  double max_seconds = 0;
  double repair_mean_seconds = 0;
  double repair_max_seconds = 0;
  for (size_t victim = 0; victim < kNodes; victim++) {
    auto db = BuildShardedDb();
    db->KillNode(victim);
    Status status = db->Reopen();
    if (!status.ok()) {
      std::fprintf(stderr, "recovery after losing node %zu failed: %s\n",
                   victim, status.ToString().c_str());
      return 1;
    }
    const RecoveryStats& stats = db->last_recovery();
    if (stats.nodes_lost != 1 || stats.orphan_pages_per_node_audit != 0 ||
        RowCount(db.get()) != expected_rows) {
      std::fprintf(stderr, "recovery after losing node %zu is wrong\n",
                   victim);
      return 1;
    }
    std::printf("victim node %zu recovery_seconds: %.6f\n", victim,
                stats.recovery_sim_seconds);
    mean_seconds += stats.recovery_sim_seconds;
    max_seconds = std::max(max_seconds, stats.recovery_sim_seconds);

    // Time-to-redundancy: the background re-protection pass that gives
    // every surviving page a second copy again, so a further node loss
    // is survivable.
    auto repaired = db->Repair();
    if (!repaired.ok() || !repaired->complete ||
        db->storage().ShadowOnlyPages() != 0 ||
        RowCount(db.get()) != expected_rows) {
      std::fprintf(stderr, "repair after losing node %zu is wrong\n",
                   victim);
      return 1;
    }
    std::printf("victim node %zu repair_seconds: %.6f (%zu pages)\n",
                victim, repaired->repair_sim_seconds,
                repaired->pages_reprotected);
    repair_mean_seconds += repaired->repair_sim_seconds;
    repair_max_seconds =
        std::max(repair_max_seconds, repaired->repair_sim_seconds);
  }
  mean_seconds /= kNodes;
  repair_mean_seconds /= kNodes;

  std::printf("join rows: %llu\n",
              static_cast<unsigned long long>(expected_rows));
  std::printf("recovery.reopen_seconds: %.6f\n", reopen_seconds);
  std::printf("recovery.node_loss_mean_seconds: %.6f\n", mean_seconds);
  std::printf("recovery.node_loss_max_seconds: %.6f\n", max_seconds);
  std::printf("repair.time_to_redundancy_mean_seconds: %.6f\n",
              repair_mean_seconds);
  std::printf("repair.time_to_redundancy_max_seconds: %.6f\n",
              repair_max_seconds);
  return 0;
}
