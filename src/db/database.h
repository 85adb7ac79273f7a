// Database facade: the "DBMS" box of the paper's Figure 3.
//
// Owns storage, catalog, views, and planner; exposes DDL, bulk load,
// query execution, and materialization. All operations charge simulated
// time on the shared CostMeter; per-operation durations are reported in
// the result structs. The speculation subsystem talks to the database
// exclusively through this interface, mirroring the paper's middleware
// architecture (speculator outside the server).
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "common/attribution.h"
#include "common/cost_meter.h"
#include "common/status.h"
#include "common/tracing.h"
#include "db/manifest.h"
#include "db/replicated_manifest.h"
#include "optimizer/planner.h"
#include "optimizer/query_graph.h"
#include "optimizer/view_matcher.h"
#include "storage/sharded_router.h"

namespace sqp {

/// Counters from the last Reopen() (crash recovery) — surfaced through
/// harness/metrics so chaos reports show what recovery did.
struct RecoveryStats {
  size_t manifest_records_replayed = 0;
  size_t tables_recovered = 0;
  size_t matviews_recovered = 0;
  size_t views_registered = 0;
  size_t indexes_rebuilt = 0;
  size_t histograms_rebuilt = 0;
  /// Materialized views whose validation scan hit a torn page; they are
  /// disposable, so recovery drops them instead of failing.
  size_t corrupt_matviews_dropped = 0;
  /// Checksum mismatches detected during recovery validation scans.
  size_t torn_pages_detected = 0;
  /// Live pages referenced by no committed table (half-built speculative
  /// materializations) deallocated by recovery GC.
  size_t orphan_pages_collected = 0;
  /// Materialized views dropped because some of their (unreplicated)
  /// pages lived on a lost storage node.
  size_t matviews_lost_with_node = 0;
  /// Storage nodes permanently lost at the time of this recovery
  /// (killed; gracefully decommissioned nodes are not lost).
  size_t nodes_lost = 0;
  /// Physical pages with no logical owner — staged rebalance/repair
  /// copies a crash cut loose — freed by recovery.
  size_t physical_orphans_collected = 0;
  /// Physical pages on surviving nodes referenced by no logical page
  /// after recovery — the per-node orphan audit; must be zero.
  size_t orphan_pages_per_node_audit = 0;
  /// Simulated seconds this Reopen() charged (validation scans, GC).
  double recovery_sim_seconds = 0;
};

/// Counters from the last Repair() pass (re-protection after node loss;
/// DESIGN.md §13) — surfaced through harness/metrics.
struct RepairStats {
  /// Page copies staged + committed to restore redundancy (new
  /// primaries promoted off shadows, new shadows for bare primaries).
  size_t pages_reprotected = 0;
  /// Shard slots re-homed off dead nodes.
  size_t shards_rehomed = 0;
  /// Dead members dropped from the manifest configuration.
  size_t members_removed = 0;
  /// Matviews that died with a node and are left to the speculation
  /// engine to re-materialize (they are requeued naturally as
  /// candidates once dropped from the view registry).
  size_t matviews_requeued = 0;
  /// Pages still under-replicated when the pass stopped (budget hit).
  size_t pages_remaining = 0;
  /// Every page is back to full redundancy.
  bool complete = false;
  /// Simulated seconds this pass charged (copy I/O + syncs).
  double repair_sim_seconds = 0;
};

struct DatabaseOptions {
  /// Buffer pool frames (4096 × 8 KiB = 32 MiB, the paper's single-user
  /// setting; the multi-user experiment uses 96 MiB = 12288).
  size_t buffer_pool_pages = 4096;
  CostConfig cost;
  /// Rows per executor batch when draining query results (DESIGN.md
  /// §10). Affects real wall-clock only, never simulated charges.
  size_t exec_batch_size = 1024;
  /// Simulated storage nodes (DESIGN.md §12). 1 = the classic
  /// single-disk database, bit-identical to the pre-sharding stack.
  /// More nodes shard base tables (replicated) across the tier and
  /// replicate the manifest with one log per node.
  size_t storage_nodes = 1;
  /// Copies kept of each base-table page (2 = one shadow; capped at 2).
  size_t replication_factor = 2;
  /// Manifest commit quorum; 0 selects a majority of storage_nodes.
  size_t manifest_quorum = 0;
  /// Alternate reads of healthy replicated pages between the primary
  /// and the shadow copy (deterministic round-robin; DESIGN.md §13).
  bool replica_read_balancing = true;
  /// Optional span tracer: Reopen() records a recovery span when set.
  Tracer* tracer = nullptr;
};

struct QueryResult {
  uint64_t row_count = 0;
  /// Simulated wall time of this execution.
  double seconds = 0;
  uint64_t blocks = 0;
  std::string plan_explain;
  std::vector<std::string> views_used;
  /// Planner's root-cardinality estimate (always populated; root
  /// Q-error = max(est/act, act/est) is cheap even without profiling).
  double est_rows = 0;
  /// Per-operator EXPLAIN ANALYZE profile; populated only when
  /// ExecuteOptions::explain_analyze is set (DESIGN.md §11).
  std::shared_ptr<PlanProfile> profile;
  /// Populated only when ExecuteOptions::keep_rows is set.
  std::vector<Tuple> rows;
  Schema schema;
};

struct ExecuteOptions {
  bool keep_rows = false;
  ViewMode view_mode = ViewMode::kCostBased;
  /// Collect per-operator actuals (rows, batches, pages, charges) into
  /// QueryResult::profile. Never affects simulated charges or results.
  bool explain_analyze = false;
};

struct MaterializeResult {
  std::string table_name;
  uint64_t row_count = 0;
  double seconds = 0;
};

class Database {
 public:
  explicit Database(DatabaseOptions options = DatabaseOptions());
  ~Database();

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  // ------------------------------------------------------------- DDL
  Status CreateTable(const std::string& name, const Schema& schema);

  /// Append rows to a table, recompute its stats, flush to disk.
  Status BulkLoad(const std::string& name, const std::vector<Tuple>& rows);

  Status CreateIndex(const std::string& table, const std::string& column);
  Status CreateHistogram(const std::string& table, const std::string& column);

  /// Drop one index / histogram (cancelled speculative creations). The
  /// drop is recorded in the manifest so recovery does not resurrect it.
  Status DropIndex(const std::string& table, const std::string& column);
  Status DropHistogram(const std::string& table, const std::string& column);

  /// Drop a table (and, if it is a materialized view, its registration).
  Status DropTable(const std::string& name);

  // ----------------------------------------------------------- Query
  /// Plan and run `query`; returns timing plus (optionally) rows.
  Result<QueryResult> Execute(const QueryGraph& query,
                              const ExecuteOptions& options = {});

  /// Parse, bind and run a SQL statement, including aggregate /
  /// GROUP BY / ORDER BY / LIMIT decorations executed on top of the
  /// (speculatively rewritable) SPJ core.
  Result<QueryResult> ExecuteSql(const std::string& sql,
                                 const ExecuteOptions& options = {});

  /// Optimizer cost estimate without executing.
  Result<double> EstimateCost(const QueryGraph& query,
                              ViewMode mode = ViewMode::kCostBased) const;

  /// Materialize `query` into a stored table. With `register_view` the
  /// result is immediately usable for rewriting; the speculation engine
  /// passes false and registers on (simulated) completion, so in-flight
  /// manipulations are invisible to concurrent queries. The
  /// materialization itself may use existing views (the paper's
  /// enumeration reuses completed materializations, §3.5).
  /// `home_node` pins the materialized table's pages to one storage
  /// node (multi-node tiers; the speculation engine passes the cost
  /// model's placement choice — DESIGN.md §14). kAnyNode keeps the
  /// default node-sticky behaviour.
  Result<MaterializeResult> Materialize(
      const QueryGraph& query, const std::string& table_name,
      bool register_view = true,
      uint32_t home_node = PageAllocOptions::kAnyNode);

  /// Register a previously materialized (unregistered) result. Fails
  /// only when the manifest commit cannot reach quorum; the view is
  /// then not registered.
  Status RegisterView(const QueryGraph& definition,
                      const std::string& table_name);

  /// Empty the buffer pool: the next operation starts cold (§4.2).
  /// Fails only on a disk write error while flushing dirty frames.
  Status ColdStart();

  // ------------------------------------------------- Crash durability
  /// Simulate a machine crash: buffer-pool contents, unsynced disk
  /// writes, uncommitted manifest records, and the in-memory catalog
  /// are all lost; at most one in-flight page tears. Every storage
  /// operation fails with kDataLoss until Reopen(). (The "disk.crash"
  /// fault point triggers the same thing from inside a write or sync.)
  void SimulateCrash();

  /// Permanently lose storage node `k`: its durable image, write cache,
  /// and manifest replica die with it (DESIGN.md §12). Call Reopen() to
  /// fail over: base tables keep serving from replicas, matviews whose
  /// pages lived there are dropped, and the manifest recovers from the
  /// surviving quorum. No-op on a single-node database; idempotent on
  /// an already-dead (or retired) node. kFailedPrecondition when the
  /// kill would drop the manifest below quorum — the cluster refuses to
  /// ruin itself; run Repair() after earlier losses first.
  Status KillNode(size_t k);

  // ------------------------------------- membership & self-healing
  /// Join a fresh, empty storage node to the cluster (DESIGN.md §13):
  /// a two-phase joint-consensus manifest membership change, then a
  /// deterministic minimal shard rebalance onto the new node (page
  /// copies staged + synced before each per-shard manifest commit
  /// group flips ownership — crash-safe at every step). Returns the
  /// new node id. On a joint-quorum failure the change is rolled back
  /// and the retryable error returned; a rebalance failure after the
  /// membership committed leaves a consistent (merely imbalanced)
  /// cluster and surfaces the error.
  Result<size_t> AddNode();

  /// Gracefully remove alive node `k`: open a joint-consensus
  /// transition, drain the node (move its shard homes, page primaries
  /// and shadows to the survivors under the joint quorum), commit the
  /// final configuration, and retire the node. Idempotent on an
  /// already-retired node; kFailedPrecondition for a dead node (run
  /// Repair() instead) or when too few nodes would remain.
  Status DecommissionNode(size_t k);

  /// Re-protection pass after node loss: drop dead members from the
  /// manifest configuration, re-home shard slots off dead nodes, and
  /// re-replicate every degraded page (promote shadows to new
  /// primaries, stage fresh shadows) so a *second* node loss is
  /// survivable. Interruptible: `max_pages` > 0 bounds the page copies
  /// charged in this pass (call again to continue; pages_remaining and
  /// complete report progress). All work is charged on the simulated
  /// clock as background cost.
  Result<RepairStats> Repair(size_t max_pages = 0);

  /// Counters from the last Repair().
  const RepairStats& last_repair() const { return last_repair_; }

  /// Recover from the durable on-disk image: recover the manifest from
  /// a quorum of surviving replicas, replay its committed records,
  /// validate every recovered table with a checksum scan (dropping
  /// corrupt materialized views; a corrupt *base* table is
  /// unrecoverable and returns kDataLoss), drop matviews whose pages
  /// died with a lost node, re-register committed views, rebuild
  /// committed indexes/histograms, and garbage-collect orphan pages
  /// left by half-built speculative materializations — per node. Also
  /// usable without a prior crash (a clean restart loses only unsynced
  /// state).
  Status Reopen();

  /// Counters from the last Reopen().
  const RecoveryStats& last_recovery() const { return last_recovery_; }

  // ------------------------------------------------------- Accessors
  Catalog& catalog() { return *catalog_; }
  const Catalog& catalog() const { return *catalog_; }
  ViewRegistry& views() { return views_; }
  const ViewRegistry& views() const { return views_; }
  const Planner& planner() const { return *planner_; }
  /// Placement oracle the planner / speculation cost model consult
  /// (DESIGN.md §14). Always non-null; reports node_count() == 1 on a
  /// single-node database, which deactivates every placement term.
  const PlacementProvider* placement() const;
  CostMeter& meter() { return meter_; }
  /// Per-session resource attribution over the meter (DESIGN.md §16).
  /// Replayers SetSession() before handing the engine an event;
  /// Execute/Materialize/Reopen/Repair open the scopes themselves.
  Attribution& attribution() { return attribution_; }
  const Attribution& attribution() const { return attribution_; }
  const DatabaseOptions& options() const { return options_; }
  BufferPool& buffer_pool() { return *pool_; }
  /// Exposed for leak accounting (chaos tests compare live_pages()
  /// across sessions) — not for direct page I/O. The router is a thin
  /// pass-through around one DiskManager on a single-node database.
  const ShardedStorageRouter& disk_manager() const { return *disk_; }
  const ShardedStorageRouter& storage() const { return *disk_; }
  /// The durable, replicated metadata log (exposed for recovery tests).
  const ReplicatedManifest& manifest() const { return manifest_; }

  /// Total simulated seconds of work this database has performed.
  double TotalSimSeconds() const { return meter_.ElapsedSeconds(); }

 private:
  /// PlacementProvider over catalog_ + disk_ (defined in database.cc;
  /// reads through the Database so it survives Reopen()'s rebuilds).
  class PlacementSource;

  DatabaseOptions options_;
  CostMeter meter_;
  Attribution attribution_{&meter_};
  std::unique_ptr<ShardedStorageRouter> disk_;
  std::unique_ptr<BufferPool> pool_;
  std::unique_ptr<Catalog> catalog_;
  ViewRegistry views_;
  std::unique_ptr<PlacementSource> placement_source_;
  std::unique_ptr<Planner> planner_;
  ReplicatedManifest manifest_;
  RecoveryStats last_recovery_;
  RepairStats last_repair_;
  uint64_t next_matview_id_ = 0;

  /// Stage every page of shard slot `s` onto `target`, sync, commit a
  /// ShardMove manifest group, then flip placements + slot home.
  Status MoveShard(size_t s, size_t target);
  /// Move floor(slots/alive) shard slots onto freshly joined `node`.
  Status RebalanceOntoNode(size_t node);
  /// Move every placement off alive node `k` (decommission drain).
  Status DrainNode(size_t k);
  /// Least-loaded (by primary-placement count, ties lowest id) alive
  /// node, excluding `exclude`; node_count() when none.
  size_t LeastLoadedAliveNode(size_t exclude,
                              size_t exclude2 = static_cast<size_t>(-1)) const;
};

}  // namespace sqp
