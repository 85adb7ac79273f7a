#include "db/database.h"

#include <algorithm>
#include <cassert>
#include <iterator>
#include <set>

#include "common/logging.h"
#include "common/metrics_registry.h"
#include "exec/aggregate.h"
#include "exec/materializer.h"
#include "exec/sort.h"
#include "sql/binder.h"

namespace sqp {

/// Placement oracle over the live catalog + storage router (DESIGN.md
/// §14). Reads through the Database pointer so Reopen()'s catalog /
/// pool rebuilds are transparent to a provider handed out earlier.
class Database::PlacementSource : public PlacementProvider {
 public:
  explicit PlacementSource(const Database* db) : db_(db) {}

  size_t node_count() const override { return db_->disk_->node_count(); }

  bool NodeAlive(size_t k) const override {
    return db_->disk_->node_count() <= 1 || db_->disk_->NodeAlive(k);
  }

  TablePlacement TablePlacementOf(const std::string& table) const override {
    TablePlacement p;
    const size_t nodes = db_->disk_->node_count();
    const TableInfo* info = db_->catalog_->GetTable(table);
    if (info == nullptr || nodes <= 1) return p;
    const HeapPlacement& heap = info->heap->placement();
    if (heap.shards > 1 && info->schema.size() > 0) {
      p.sharded = true;
      p.shard_column = info->schema.columns().front().name;
      p.shard_slots = heap.shards;
    }
    std::vector<double> counts(nodes, 0.0);
    double total = 0.0;
    for (page_id_t page : info->heap->pages()) {
      uint32_t node = db_->disk_->PagePrimaryNode(page);
      if (node < nodes) {
        counts[node] += 1.0;
        total += 1.0;
      }
    }
    if (total > 0) {
      for (double& c : counts) c /= total;
      p.node_page_fraction = std::move(counts);
    }
    return p;
  }

  std::vector<double> ShardSlotShare() const override {
    const size_t nodes = db_->disk_->node_count();
    std::vector<double> share(nodes, 0.0);
    if (nodes <= 1) {
      share.assign(1, 1.0);
      return share;
    }
    const size_t slots = db_->disk_->shard_count();
    for (size_t s = 0; s < slots; s++) {
      size_t home = db_->disk_->shard_home(s);
      if (home < nodes) share[home] += 1.0 / static_cast<double>(slots);
    }
    return share;
  }

 private:
  const Database* db_;
};

Database::Database(DatabaseOptions options)
    : options_(options),
      meter_(options.cost),
      manifest_(options.storage_nodes == 0 ? 1 : options.storage_nodes,
                options.manifest_quorum) {
  disk_ = std::make_unique<ShardedStorageRouter>(
      &meter_, options_.storage_nodes == 0 ? 1 : options_.storage_nodes,
      options_.replication_factor, options_.replica_read_balancing);
  pool_ = std::make_unique<BufferPool>(disk_.get(),
                                       options_.buffer_pool_pages);
  catalog_ = std::make_unique<Catalog>(disk_.get(), pool_.get());
  placement_source_ = std::make_unique<PlacementSource>(this);
  planner_ = std::make_unique<Planner>(catalog_.get(), options_.cost,
                                       placement_source_.get());
}

Database::~Database() = default;

const PlacementProvider* Database::placement() const {
  return placement_source_.get();
}

Status Database::CreateTable(const std::string& name, const Schema& schema) {
  auto table = catalog_->CreateTable(name, schema);
  if (!table.ok()) return table.status();
  manifest_.Append(ManifestRecord::CreateTable(name, schema,
                                               /*is_materialized=*/false));
  Status committed = manifest_.Commit();
  if (!committed.ok()) {
    // Quorum failed: the table must not outlive its missing record.
    (void)catalog_->DropTable(name);
    return committed;
  }
  return Status::OK();
}

Status Database::BulkLoad(const std::string& name,
                          const std::vector<Tuple>& rows) {
  TableInfo* info = catalog_->GetTable(name);
  if (info == nullptr) return Status::NotFound("table " + name);
  TableStats stats;
  stats.Begin(info->schema);
  for (const Tuple& row : rows) {
    if (row.size() != info->schema.size()) {
      return Status::InvalidArgument("row arity mismatch for " + name);
    }
    stats.Observe(row);
    auto rid = info->heap->Append(row);
    if (!rid.ok()) return rid.status();
  }
  stats.Finish(info->heap->page_count());
  info->stats = std::move(stats);
  for (page_id_t page_id : info->heap->pages()) {
    SQP_RETURN_IF_ERROR(pool_->FlushPage(page_id));
  }
  // Commit point: pages become durable *before* the manifest record
  // that references them (write-ahead discipline) — a crash in between
  // leaves committed bytes plus an uncommitted record, never the
  // reverse.
  SQP_RETURN_IF_ERROR(disk_->Sync());
  manifest_.Append(ManifestRecord::BulkLoadCommit(
      name, info->heap->pages(), info->heap->tuple_count()));
  // A failed quorum here leaves the loaded rows uncommitted: after the
  // next Reopen they fold away as orphans. Surface the failure so the
  // caller knows the load did not commit.
  return manifest_.Commit();
}

Status Database::CreateIndex(const std::string& table,
                             const std::string& column) {
  auto index = catalog_->CreateIndex(table, column);
  if (!index.ok()) return index.status();
  manifest_.Append(ManifestRecord::CreateIndex(table, column));
  Status committed = manifest_.Commit();
  if (!committed.ok()) {
    (void)catalog_->DropIndex(table, column);
    return committed;
  }
  return Status::OK();
}

Status Database::CreateHistogram(const std::string& table,
                                 const std::string& column) {
  SQP_RETURN_IF_ERROR(catalog_->CreateHistogram(table, column));
  manifest_.Append(ManifestRecord::CreateHistogram(table, column));
  Status committed = manifest_.Commit();
  if (!committed.ok()) {
    (void)catalog_->DropHistogram(table, column);
    return committed;
  }
  return Status::OK();
}

Status Database::DropIndex(const std::string& table,
                           const std::string& column) {
  if (!catalog_->HasIndex(table, column)) {
    return Status::NotFound("index on " + table + "." + column);
  }
  // Log-before-action (an index cannot be un-dropped if the commit
  // fails afterwards).
  manifest_.Append(ManifestRecord::DropIndex(table, column));
  SQP_RETURN_IF_ERROR(manifest_.Commit());
  return catalog_->DropIndex(table, column);
}

Status Database::DropHistogram(const std::string& table,
                               const std::string& column) {
  if (catalog_->GetHistogram(table, column) == nullptr) {
    return Status::NotFound("histogram on " + table + "." + column);
  }
  manifest_.Append(ManifestRecord::DropHistogram(table, column));
  SQP_RETURN_IF_ERROR(manifest_.Commit());
  return catalog_->DropHistogram(table, column);
}

Status Database::DropTable(const std::string& name) {
  if (catalog_->GetTable(name) == nullptr) {
    return Status::NotFound("table " + name);
  }
  // Log-before-action: commit the drop record first, then free the
  // pages. A crash in between leaves orphan pages for recovery GC —
  // never a committed table pointing at deallocated pages. A failed
  // quorum aborts the drop entirely (the table stays).
  manifest_.Append(ManifestRecord::DropTable(name));
  SQP_RETURN_IF_ERROR(manifest_.Commit());
  views_.Unregister(name);
  return catalog_->DropTable(name);
}

namespace {
/// Drain `exec` into a QueryResult batch at a time, timing against
/// `meter`.
Result<QueryResult> RunToResult(Executor* exec, CostMeter& meter,
                                const ExecuteOptions& options,
                                std::string plan_explain,
                                std::vector<std::string> views_used,
                                size_t batch_size) {
  CostScope scope(meter);
  QueryResult result;
  result.plan_explain = std::move(plan_explain);
  result.views_used = std::move(views_used);
  result.schema = exec->output_schema();

  SQP_RETURN_IF_ERROR(exec->Init());
  TupleBatch batch(batch_size);
  for (;;) {
    auto more = exec->NextBatch(&batch);
    if (!more.ok()) return more.status();
    if (batch.empty()) break;
    result.row_count += batch.size();
    if (options.keep_rows) {
      result.rows.insert(result.rows.end(),
                         std::make_move_iterator(batch.begin()),
                         std::make_move_iterator(batch.end()));
    }
  }
  result.seconds = scope.ElapsedSeconds();
  result.blocks = scope.ElapsedBlocks();
  return result;
}
}  // namespace

namespace {
/// Copy a closed query scope's inclusive cost into the profile's
/// EXPLAIN ANALYZE attribution block (DESIGN.md §16).
void FillAttribution(const AttributionScope& attr,
                     const Attribution& attribution, PlanProfile* profile) {
  if (profile == nullptr || !attr.closed()) return;
  profile->attribution.present = true;
  profile->attribution.session = attr.session();
  profile->attribution.seconds = attribution.Seconds(attr.inclusive());
  profile->attribution.blocks = attr.inclusive().blocks;
  profile->attribution.tuples = attr.inclusive().tuples;
}

/// Fold a finished profile's root Q-error into the global registry so
/// long replays expose estimation accuracy without keeping profiles.
void ObserveProfile(const std::shared_ptr<PlanProfile>& profile) {
  if (profile == nullptr || profile->root == nullptr) return;
  // Q-error is >= 1 by construction; a bound at exactly 1.0 anchors
  // quantile interpolation so p50 never reads below the floor.
  static const std::vector<double> kQErrorBounds = {1.0, 1.5, 2,   4,  8,
                                                    16,  64,  256, 1024};
  MetricsRegistry::Global()
      .GetHistogram("exec.plan.q_error", kQErrorBounds)
      ->Observe(profile->root->QError());
}
}  // namespace

Result<QueryResult> Database::Execute(const QueryGraph& query,
                                      const ExecuteOptions& options) {
  AttributionScope attr(&attribution_, Attribution::Kind::kQuery);
  auto plan = planner_->Plan(query, &views_, options.view_mode);
  if (!plan.ok()) return plan.status();
  std::shared_ptr<PlanProfile> profile;
  if (options.explain_analyze) profile = std::make_shared<PlanProfile>();
  auto exec = planner_->Build(*plan, catalog_.get(), pool_.get(), &meter_,
                              profile.get());
  if (!exec.ok()) return exec.status();
  auto result = RunToResult(exec->get(), meter_, options, plan->Explain(),
                            plan->views_used, options_.exec_batch_size);
  attr.Close();
  if (result.ok()) {
    result->est_rows = plan->est_rows;
    FillAttribution(attr, attribution_, profile.get());
    ObserveProfile(profile);
    result->profile = std::move(profile);
    SQP_LOG_DEBUG << "Execute " << query.ToSql() << " -> "
                  << result->row_count << " rows in " << result->seconds
                  << "s";
  }
  return result;
}

Result<QueryResult> Database::ExecuteSql(const std::string& sql,
                                         const ExecuteOptions& options) {
  auto bound = ParseAndBindFull(sql, *catalog_);
  if (!bound.ok()) return bound.status();
  if (!bound->has_decorations()) return Execute(bound->graph, options);

  AttributionScope attr(&attribution_, Attribution::Kind::kQuery);
  auto plan = planner_->Plan(bound->graph, &views_, options.view_mode);
  if (!plan.ok()) return plan.status();
  std::shared_ptr<PlanProfile> profile;
  if (options.explain_analyze) profile = std::make_shared<PlanProfile>();
  auto built = planner_->Build(*plan, catalog_.get(), pool_.get(), &meter_,
                               profile.get());
  if (!built.ok()) return built.status();
  std::unique_ptr<Executor> exec = std::move(*built);
  // Decorations stacked below re-root the profile as they wrap the
  // executor; `cur_est` tracks the running output-cardinality estimate.
  double cur_est = plan->est_rows;

  // Aggregation / grouping on top of the SPJ core.
  if (!bound->aggregates.empty() || !bound->group_by.empty()) {
    const Schema& in = exec->output_schema();
    std::vector<size_t> group_idx;
    for (const auto& name : bound->group_by) {
      auto idx = in.ColumnIndex(name);
      if (!idx.has_value()) {
        return Status::NotFound("GROUP BY column " + name);
      }
      group_idx.push_back(*idx);
    }
    std::vector<AggSpec> specs;
    for (const auto& agg : bound->aggregates) {
      AggSpec spec;
      spec.func = agg.func;
      spec.output_name = agg.output_name;
      if (agg.star) {
        spec.column_index = AggSpec::kStar;
      } else {
        auto idx = in.ColumnIndex(agg.column);
        if (!idx.has_value()) {
          return Status::NotFound("aggregate column " + agg.column);
        }
        spec.column_index = *idx;
      }
      specs.push_back(std::move(spec));
    }
    std::string agg_detail;
    for (const auto& name : bound->group_by) {
      if (!agg_detail.empty()) agg_detail += ", ";
      agg_detail += name;
    }
    exec = std::make_unique<HashAggregateExecutor>(
        std::move(exec), std::move(group_idx), std::move(specs), &meter_);
    // No group-count estimate exists; ungrouped aggregation provably
    // yields one row, grouped output is bounded by the input.
    cur_est = bound->group_by.empty() ? 1 : cur_est;
    if (profile != nullptr) {
      exec = MakeProfiled(
          std::move(exec), &meter_,
          profile->PushRoot("Aggregate", agg_detail, cur_est));
    }
  }

  if (!bound->order_by.empty()) {
    const Schema& in = exec->output_schema();
    std::vector<SortKey> keys;
    for (const auto& order : bound->order_by) {
      auto idx = in.ColumnIndex(order.column);
      if (!idx.has_value()) {
        return Status::NotFound("ORDER BY column " + order.column);
      }
      keys.push_back(SortKey{*idx, order.descending});
    }
    std::string sort_detail;
    for (const auto& order : bound->order_by) {
      if (!sort_detail.empty()) sort_detail += ", ";
      sort_detail += order.column;
      if (order.descending) sort_detail += " DESC";
    }
    exec = std::make_unique<SortExecutor>(std::move(exec), std::move(keys),
                                          &meter_);
    if (profile != nullptr) {
      exec = MakeProfiled(std::move(exec), &meter_,
                          profile->PushRoot("Sort", sort_detail, cur_est));
    }
  }

  if (bound->limit.has_value()) {
    exec = std::make_unique<LimitExecutor>(std::move(exec), *bound->limit);
    cur_est = std::min(cur_est, static_cast<double>(*bound->limit));
    if (profile != nullptr) {
      exec = MakeProfiled(
          std::move(exec), &meter_,
          profile->PushRoot("Limit", std::to_string(*bound->limit), cur_est));
    }
  }

  auto result = RunToResult(exec.get(), meter_, options, plan->Explain(),
                            plan->views_used, options_.exec_batch_size);
  attr.Close();
  if (result.ok()) {
    result->est_rows = cur_est;
    FillAttribution(attr, attribution_, profile.get());
    ObserveProfile(profile);
    result->profile = std::move(profile);
  }
  return result;
}

Result<double> Database::EstimateCost(const QueryGraph& query,
                                      ViewMode mode) const {
  return planner_->EstimateCost(query, &views_, mode);
}

Result<MaterializeResult> Database::Materialize(
    const QueryGraph& query, const std::string& table_name,
    bool register_view, uint32_t home_node) {
  AttributionScope attr(&attribution_, Attribution::Kind::kManipulation);
  // SELECT * semantics: the stored view keeps every column.
  QueryGraph definition = query;
  definition.SetProjections({});
  auto plan = planner_->Plan(definition, &views_, ViewMode::kCostBased);
  if (!plan.ok()) return plan.status();
  auto exec = planner_->Build(*plan, catalog_.get(), pool_.get(), &meter_);
  if (!exec.ok()) return exec.status();

  if (disk_->node_count() <= 1) home_node = PageAllocOptions::kAnyNode;
  CostScope scope(meter_);
  auto table = MaterializeInto(catalog_.get(), pool_.get(), &meter_,
                               exec->get(), table_name,
                               /*is_materialized=*/true, home_node);
  if (!table.ok()) return table.status();

  // Commit point: sync the result pages, then commit the table (and
  // optionally its view registration) as one atomic manifest group. A
  // crash before the commit leaves only orphan pages for recovery GC.
  Status synced = disk_->Sync();
  if (!synced.ok()) {
    (void)DropTable(table_name);
    return synced;
  }
  manifest_.Append(ManifestRecord::CreateTable(table_name,
                                               (*table)->schema,
                                               /*is_materialized=*/true));
  manifest_.Append(ManifestRecord::BulkLoadCommit(
      table_name, (*table)->heap->pages(), (*table)->heap->tuple_count()));
  if (register_view) {
    manifest_.Append(ManifestRecord::RegisterView(table_name, definition));
  }
  Status committed = manifest_.Commit();
  if (!committed.ok()) {
    // Quorum failed: undo at the catalog level (not DropTable — that
    // would log a drop of a table the manifest never saw).
    (void)catalog_->DropTable(table_name);
    return committed;
  }

  if (register_view) {
    views_.Register(ViewDefinition{table_name, definition});
  }
  MaterializeResult result;
  result.table_name = table_name;
  result.row_count = (*table)->stats.row_count();
  result.seconds = scope.ElapsedSeconds();
  SQP_LOG_DEBUG << "Materialize " << definition.ToSql() << " -> "
                << table_name << " (" << result.row_count << " rows, "
                << result.seconds << "s)";
  return result;
}

Status Database::RegisterView(const QueryGraph& definition,
                              const std::string& table_name) {
  QueryGraph def = definition;
  def.SetProjections({});
  manifest_.Append(ManifestRecord::RegisterView(table_name, def));
  SQP_RETURN_IF_ERROR(manifest_.Commit());
  views_.Register(ViewDefinition{table_name, std::move(def)});
  return Status::OK();
}

Status Database::ColdStart() { return pool_->Reset(); }

void Database::SimulateCrash() {
  disk_->SimulateCrash();
  manifest_.DropUncommitted();
}

Status Database::KillNode(size_t k) {
  if (disk_->node_count() <= 1 || k >= disk_->node_count()) {
    return Status::OK();  // no node API on a single-node database
  }
  if (!disk_->NodeAlive(k)) return Status::OK();  // idempotent
  if (manifest_.WouldBreakQuorum(k)) {
    // Refuse to ruin the cluster: below quorum the manifest — and with
    // it every committed table — is unrecoverable. Repair() after the
    // earlier loss shrinks the configuration so the next kill passes.
    return Status::FailedPrecondition(
        "killing node " + std::to_string(k) +
        " would break manifest quorum (" +
        std::to_string(manifest_.alive_members()) + " alive members, " +
        "quorum " + std::to_string(manifest_.quorum()) +
        "); run Repair() or add nodes first");
  }
  disk_->KillNode(k);
  manifest_.KillReplica(k);
  MetricsRegistry::Global().GetCounter("storage.node.lost")->Increment();
  SQP_LOG_DEBUG << "node " << k << " lost (" << disk_->alive_nodes() << "/"
                << disk_->node_count() << " alive)";
  return Status::OK();
}

size_t Database::LeastLoadedAliveNode(size_t exclude, size_t exclude2) const {
  size_t best = disk_->node_count();
  size_t best_load = 0;
  for (size_t k = 0; k < disk_->node_count(); k++) {
    if (k == exclude || k == exclude2 || !disk_->NodeAlive(k)) continue;
    size_t load = disk_->PagesWithPrimaryOn(k).size();
    if (best == disk_->node_count() || load < best_load) {
      best = k;
      best_load = load;
    }
  }
  return best;
}

Status Database::MoveShard(size_t s, size_t target) {
  const size_t old_home = disk_->shard_home(s);
  std::vector<ShardedStorageRouter::StagedCopy> staged;
  auto abort_all = [&] {
    for (const auto& copy : staged) disk_->AbortCopy(copy);
  };
  for (page_id_t global : disk_->PagesInShard(s)) {
    if (disk_->PagePrimaryNode(global) != old_home) continue;
    auto copy = disk_->StageCopy(global, target, /*as_primary=*/true);
    if (!copy.ok()) {
      abort_all();
      return copy.status();
    }
    staged.push_back(*copy);
    if (disk_->PageReplicaNode(global) == target) {
      // The shadow already lives on the target: moving the primary
      // there too would collapse both copies onto one node. Relocate
      // the shadow back to the old home (alive, and now primary-free
      // for this page).
      auto shadow = disk_->StageCopy(global, old_home, /*as_primary=*/false);
      if (!shadow.ok()) {
        abort_all();
        return shadow.status();
      }
      staged.push_back(*shadow);
    }
  }
  // Crash-safe ordering: staged bytes become durable, then the manifest
  // commit group records the move, then placements flip. A crash
  // replays to exactly one owner — before the commit the old placements
  // stand and the staged pages are physical orphans; after it the flip
  // is deterministic replay state.
  Status synced = disk_->Sync();
  if (!synced.ok()) {
    abort_all();
    return synced;
  }
  manifest_.Append(
      ManifestRecord::ShardMove(s, static_cast<uint32_t>(target)));
  Status committed = manifest_.Commit();
  if (!committed.ok()) {
    abort_all();
    return committed;
  }
  for (const auto& copy : staged) {
    SQP_RETURN_IF_ERROR(disk_->CommitCopy(copy));
  }
  disk_->SetShardHome(s, target);
  MetricsRegistry::Global().GetCounter("membership.shards_moved")->Increment();
  return Status::OK();
}

Status Database::RebalanceOntoNode(size_t node) {
  const size_t fair = disk_->shard_count() / disk_->alive_nodes();
  while (disk_->ShardsHomedAt(node).size() < fair) {
    // Donor: the node homing the most slots (ties to the lowest id);
    // take its lowest slot. Fully deterministic, so every replay moves
    // the same pages.
    size_t donor = disk_->node_count();
    size_t donor_slots = 0;
    for (size_t k = 0; k < disk_->node_count(); k++) {
      if (k == node || !disk_->NodeAlive(k)) continue;
      size_t held = disk_->ShardsHomedAt(k).size();
      if (held > donor_slots) {
        donor = k;
        donor_slots = held;
      }
    }
    if (donor >= disk_->node_count() || donor_slots == 0) break;
    SQP_RETURN_IF_ERROR(MoveShard(disk_->ShardsHomedAt(donor).front(), node));
  }
  return Status::OK();
}

Status Database::DrainNode(size_t k) {
  // Shard homes first: each slot moves with its pages under its own
  // commit group.
  for (size_t s : disk_->ShardsHomedAt(k)) {
    size_t target = LeastLoadedAliveNode(k);
    if (target >= disk_->node_count()) {
      return Status::FailedPrecondition("no surviving node to drain to");
    }
    SQP_RETURN_IF_ERROR(MoveShard(s, target));
  }
  // Remaining placements: node-sticky matview primaries and shadows.
  std::vector<ShardedStorageRouter::StagedCopy> staged;
  auto abort_all = [&] {
    for (const auto& copy : staged) disk_->AbortCopy(copy);
  };
  for (page_id_t global : disk_->PagesWithPrimaryOn(k)) {
    size_t target = LeastLoadedAliveNode(k, disk_->PageReplicaNode(global));
    if (target >= disk_->node_count()) {
      abort_all();
      return Status::FailedPrecondition("no surviving node to drain to");
    }
    auto copy = disk_->StageCopy(global, target, /*as_primary=*/true);
    if (!copy.ok()) {
      abort_all();
      return copy.status();
    }
    staged.push_back(*copy);
  }
  for (page_id_t global : disk_->PagesWithReplicaOn(k)) {
    size_t target = LeastLoadedAliveNode(k, disk_->PagePrimaryNode(global));
    if (target >= disk_->node_count()) {
      abort_all();
      return Status::FailedPrecondition("no surviving node to drain to");
    }
    auto copy = disk_->StageCopy(global, target, /*as_primary=*/false);
    if (!copy.ok()) {
      abort_all();
      return copy.status();
    }
    staged.push_back(*copy);
  }
  if (!staged.empty()) {
    Status synced = disk_->Sync();
    if (!synced.ok()) {
      abort_all();
      return synced;
    }
    manifest_.Append(ManifestRecord::Repair(
        "drain node " + std::to_string(k) + ": " +
        std::to_string(staged.size()) + " copies"));
    Status committed = manifest_.Commit();
    if (!committed.ok()) {
      abort_all();
      return committed;
    }
    for (const auto& copy : staged) {
      SQP_RETURN_IF_ERROR(disk_->CommitCopy(copy));
    }
  }
  return Status::OK();
}

Result<size_t> Database::AddNode() {
  MetricsRegistry& registry = MetricsRegistry::Global();
  if (disk_->node_count() <= 1) {
    return Status::FailedPrecondition(
        "single-node database has no membership");
  }
  if (disk_->has_crashed()) {
    return Status::FailedPrecondition(
        "reopen required before membership changes");
  }
  if (disk_->node_count() >= kMaxStorageNodes) {
    return Status::InvalidArgument("storage tier is full");
  }
  const double sim_before = meter_.ElapsedSeconds();
  Tracer::SpanId span = Tracer::kInvalidSpan;
  if (options_.tracer != nullptr) {
    span = options_.tracer->BeginSpan("db.membership.add", "membership",
                                      sim_before);
  }
  auto end_span = [&](const char* note) {
    if (options_.tracer != nullptr) {
      options_.tracer->EndSpan(span, meter_.ElapsedSeconds(), note);
    }
  };
  // Two-phase joint consensus: the joint configuration commits under
  // both quorums, then the final configuration seals the handover.
  auto joined = manifest_.BeginAddReplica();
  if (!joined.ok()) {
    registry.GetCounter("membership.jointcommit_failures")->Increment();
    end_span("joint config refused");
    return joined.status();
  }
  size_t node = disk_->AddNode();
  assert(node == *joined && "router/manifest node ids diverged");
  Status sealed = manifest_.CompleteMembershipChange();
  if (!sealed.ok()) {
    // Deterministic rollback: configuration reverts, and the (still
    // empty) router node retires so ids stay aligned for a later join.
    (void)manifest_.AbortMembershipChange();
    (void)disk_->RetireNode(node);
    registry.GetCounter("membership.jointcommit_failures")->Increment();
    end_span("joint final refused");
    return sealed;
  }
  registry.GetCounter("membership.joins")->Increment();
  SQP_LOG_DEBUG << "node " << node << " joined (" << disk_->alive_nodes()
                << " alive)";
  // Minimal rebalance: whole shard slots move until the new node holds
  // its fair share. A failure here leaves a consistent (merely
  // imbalanced) cluster — the membership itself stands.
  Status moved = RebalanceOntoNode(node);
  if (!moved.ok()) {
    end_span("rebalance failed");
    return moved;
  }
  end_span("joined");
  return node;
}

Status Database::DecommissionNode(size_t k) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  if (disk_->node_count() <= 1) {
    return Status::FailedPrecondition(
        "single-node database has no membership");
  }
  if (k >= disk_->node_count()) {
    return Status::InvalidArgument("no such node " + std::to_string(k));
  }
  if (disk_->NodeRetired(k)) return Status::OK();  // idempotent
  if (!disk_->NodeAlive(k)) {
    return Status::FailedPrecondition(
        "node " + std::to_string(k) + " is dead; run Repair() instead");
  }
  if (disk_->has_crashed()) {
    return Status::FailedPrecondition(
        "reopen required before membership changes");
  }
  if (disk_->alive_nodes() <= 2) {
    return Status::FailedPrecondition(
        "replication needs at least two remaining nodes");
  }
  const double sim_before = meter_.ElapsedSeconds();
  Tracer::SpanId span = Tracer::kInvalidSpan;
  if (options_.tracer != nullptr) {
    span = options_.tracer->BeginSpan("db.membership.decommission",
                                      "membership", sim_before);
  }
  auto end_span = [&](const char* note) {
    if (options_.tracer != nullptr) {
      options_.tracer->EndSpan(span, meter_.ElapsedSeconds(), note);
    }
  };
  Status begun = manifest_.BeginRemoveReplicas({k});
  if (!begun.ok()) {
    end_span("joint config refused");
    return begun;
  }
  // Every drain commit below runs under the joint rule: both the old
  // and the new configuration must ack, so neither can later disown
  // the moves.
  Status drained = DrainNode(k);
  if (!drained.ok()) {
    (void)manifest_.AbortMembershipChange();
    end_span("drain failed");
    return drained;
  }
  Status sealed = manifest_.CompleteMembershipChange();
  if (!sealed.ok()) {
    (void)manifest_.AbortMembershipChange();
    registry.GetCounter("membership.jointcommit_failures")->Increment();
    end_span("joint final refused");
    return sealed;
  }
  Status retired = disk_->RetireNode(k);
  assert(retired.ok() && "decommission left placements behind");
  (void)retired;
  manifest_.KillReplica(k);  // the replica leaves service with its node
  registry.GetCounter("membership.decommissions")->Increment();
  SQP_LOG_DEBUG << "node " << k << " decommissioned ("
                << disk_->alive_nodes() << " alive)";
  end_span("decommissioned");
  return Status::OK();
}

Result<RepairStats> Database::Repair(size_t max_pages) {
  AttributionScope attr(&attribution_, Attribution::Kind::kMaintenance);
  RepairStats stats;
  if (disk_->node_count() <= 1) {
    stats.complete = true;
    last_repair_ = stats;
    return stats;
  }
  if (disk_->has_crashed()) {
    return Status::FailedPrecondition("reopen required before repair");
  }
  MetricsRegistry& registry = MetricsRegistry::Global();
  const double sim_before = meter_.ElapsedSeconds();
  Tracer::SpanId span = Tracer::kInvalidSpan;
  if (options_.tracer != nullptr) {
    span = options_.tracer->BeginSpan("db.repair", "repair", sim_before);
  }
  auto end_span = [&](const char* note) {
    if (options_.tracer != nullptr) {
      options_.tracer->EndSpan(span, meter_.ElapsedSeconds(), note);
    }
  };
  // 1. Shrink the manifest configuration past dead members, so quorum
  // is judged against the survivors and the *next* loss is tolerable.
  std::vector<size_t> dead = manifest_.DeadMembers();
  if (!dead.empty() && !manifest_.in_joint_transition()) {
    Status begun = manifest_.BeginRemoveReplicas(dead);
    if (!begun.ok()) {
      end_span("config shrink refused");
      return begun;
    }
    Status sealed = manifest_.CompleteMembershipChange();
    if (!sealed.ok()) {
      (void)manifest_.AbortMembershipChange();
      end_span("config shrink failed");
      return sealed;
    }
    stats.members_removed = dead.size();
  }
  // 2. Re-home shard slots whose home node died. No copies move here:
  // the slot's pages get fresh primaries in step 3; the new home only
  // steers future allocations.
  std::vector<std::pair<size_t, size_t>> rehomes;
  std::vector<size_t> pending_slots(disk_->node_count(), 0);
  for (size_t s = 0; s < disk_->shard_count(); s++) {
    if (disk_->NodeAlive(disk_->shard_home(s))) continue;
    size_t target = disk_->node_count();
    size_t target_load = 0;
    for (size_t k = 0; k < disk_->node_count(); k++) {
      if (!disk_->NodeAlive(k)) continue;
      size_t load = disk_->ShardsHomedAt(k).size() + pending_slots[k];
      if (target == disk_->node_count() || load < target_load) {
        target = k;
        target_load = load;
      }
    }
    if (target >= disk_->node_count()) {
      end_span("no node for shard re-home");
      return Status::DataLoss("no storage node alive");
    }
    pending_slots[target]++;
    rehomes.emplace_back(s, target);
  }
  if (!rehomes.empty()) {
    for (const auto& [s, target] : rehomes) {
      manifest_.Append(
          ManifestRecord::ShardMove(s, static_cast<uint32_t>(target)));
    }
    Status committed = manifest_.Commit();
    if (!committed.ok()) {
      end_span("shard re-home commit failed");
      return committed;
    }
    for (const auto& [s, target] : rehomes) disk_->SetShardHome(s, target);
    stats.shards_rehomed = rehomes.size();
  }
  // 3. Page re-protection under the interruptible budget: promote
  // shadows whose primary died, then re-replicate bare primaries —
  // deterministic (global-id) order, all I/O charged on the meter.
  std::vector<ShardedStorageRouter::RepairNeed> needs =
      disk_->PagesNeedingRepair();
  const size_t budget =
      max_pages == 0 ? needs.size() : std::min(max_pages, needs.size());
  std::vector<ShardedStorageRouter::StagedCopy> staged;
  auto abort_all = [&] {
    for (const auto& copy : staged) disk_->AbortCopy(copy);
  };
  size_t skipped = 0;
  for (size_t i = 0; i < budget; i++) {
    const auto& need = needs[i];
    size_t target;
    bool as_primary;
    if (need.primary_dead) {
      // New primary: prefer the page's shard home (keeps the shard
      // together) unless the shadow already sits there.
      as_primary = true;
      uint32_t shadow_node = disk_->PageReplicaNode(need.global);
      uint32_t shard = disk_->PageShard(need.global);
      if (shard != PageAllocOptions::kNoShard &&
          disk_->NodeAlive(disk_->shard_home(shard)) &&
          disk_->shard_home(shard) != shadow_node) {
        target = disk_->shard_home(shard);
      } else {
        target = LeastLoadedAliveNode(shadow_node);
      }
    } else {
      as_primary = false;
      target = LeastLoadedAliveNode(disk_->PagePrimaryNode(need.global));
    }
    if (target >= disk_->node_count()) {
      skipped++;  // nowhere to put a second copy (one-node remainder)
      continue;
    }
    auto copy = disk_->StageCopy(need.global, target, as_primary);
    if (!copy.ok()) {
      abort_all();
      end_span("stage failed");
      return copy.status();
    }
    staged.push_back(*copy);
  }
  if (!staged.empty()) {
    Status synced = disk_->Sync();
    if (!synced.ok()) {
      abort_all();
      end_span("sync failed");
      return synced;
    }
    manifest_.Append(ManifestRecord::Repair(
        "re-protected " + std::to_string(staged.size()) + " pages"));
    Status committed = manifest_.Commit();
    if (!committed.ok()) {
      abort_all();
      end_span("repair commit failed");
      return committed;
    }
    for (const auto& copy : staged) {
      SQP_RETURN_IF_ERROR(disk_->CommitCopy(copy));
      stats.pages_reprotected++;
    }
  }
  stats.pages_remaining = needs.size() - budget + skipped;
  stats.complete = stats.pages_remaining == 0;
  if (stats.complete) {
    // Matviews that died with their node were dropped by Reopen(); the
    // speculation engine re-derives them as candidates organically.
    stats.matviews_requeued = last_recovery_.matviews_lost_with_node;
  }
  stats.repair_sim_seconds = meter_.ElapsedSeconds() - sim_before;
  registry.GetCounter("repair.runs")->Increment();
  registry.GetCounter("repair.pages_reprotected")
      ->Increment(stats.pages_reprotected);
  registry.GetCounter("repair.shards_rehomed")
      ->Increment(stats.shards_rehomed);
  registry.GetCounter("repair.members_removed")
      ->Increment(stats.members_removed);
  registry.GetCounter("repair.matviews_requeued")
      ->Increment(stats.matviews_requeued);
  last_repair_ = stats;
  SQP_LOG_DEBUG << "Repair: " << stats.pages_reprotected
                << " pages re-protected, " << stats.shards_rehomed
                << " shards re-homed, " << stats.members_removed
                << " members removed, " << stats.pages_remaining
                << " remaining";
  end_span(stats.complete ? "redundancy restored" : "budget exhausted");
  return stats;
}

Status Database::Reopen() {
  AttributionScope attr(&attribution_, Attribution::Kind::kMaintenance);
  manifest_.DropUncommitted();
  disk_->Restart();
  const double sim_before = meter_.ElapsedSeconds();
  Tracer::SpanId span = Tracer::kInvalidSpan;
  if (options_.tracer != nullptr) {
    span = options_.tracer->BeginSpan("db.reopen", "recovery", sim_before);
  }
  // The manifest first: elect a leader among the surviving replicas and
  // heal their logs, so everything below folds the quorum's view.
  Status quorum = manifest_.RecoverFromQuorum();
  if (!quorum.ok()) {
    if (options_.tracer != nullptr) {
      options_.tracer->EndSpan(span, meter_.ElapsedSeconds(),
                               "quorum lost");
    }
    return quorum;
  }
  // The old pool/catalog/views mirror pre-crash memory: discard them and
  // rebuild from the durable image.
  pool_ = std::make_unique<BufferPool>(disk_.get(),
                                       options_.buffer_pool_pages);
  catalog_ = std::make_unique<Catalog>(disk_.get(), pool_.get());
  views_ = ViewRegistry();
  planner_ = std::make_unique<Planner>(catalog_.get(), options_.cost,
                                       placement_source_.get());
  last_recovery_ = RecoveryStats();
  last_recovery_.manifest_records_replayed = manifest_.committed_count();
  last_recovery_.nodes_lost = disk_->killed_nodes();
  const uint64_t checksum_failures_before = disk_->checksum_failures();

  ManifestFoldResult fold = FoldManifest(manifest_.committed());
  for (const auto& [name, state] : fold.tables) {
    // Pages that died with a lost node: a base table never hits this
    // (every page has a shadow on another node), but an unreplicated
    // matview that lived on the dead node is gone.
    bool pages_lost = false;
    for (page_id_t page_id : state.pages) {
      if (!disk_->PageAvailable(page_id)) {
        pages_lost = true;
        break;
      }
    }
    if (pages_lost) {
      if (!state.is_materialized) {
        return Status::DataLoss("base table " + name +
                                " lost pages with a storage node");
      }
      // Free the copies that did survive and record the drop so later
      // replays agree.
      for (page_id_t page_id : state.pages) {
        pool_->EvictPage(page_id);
        (void)disk_->DeallocatePage(page_id);
      }
      manifest_.Append(ManifestRecord::DropTable(name));
      SQP_RETURN_IF_ERROR(manifest_.Commit());
      last_recovery_.matviews_lost_with_node++;
      continue;
    }
    auto restored =
        catalog_->RestoreTable(name, state.schema, state.is_materialized,
                               state.pages, state.tuple_count);
    if (!restored.ok()) {
      if (restored.status().code() == StatusCode::kDataLoss &&
          state.is_materialized) {
        // A corrupt speculative materialization is disposable: release
        // its pages and record the drop so later replays agree.
        for (page_id_t page_id : state.pages) {
          pool_->EvictPage(page_id);
          (void)disk_->DeallocatePage(page_id);
        }
        manifest_.Append(ManifestRecord::DropTable(name));
        SQP_RETURN_IF_ERROR(manifest_.Commit());
        last_recovery_.corrupt_matviews_dropped++;
        continue;
      }
      // A corrupt base table (or a non-checksum failure) is
      // unrecoverable data loss; surface it instead of serving it.
      return restored.status();
    }
    last_recovery_.tables_recovered++;
    if (state.is_materialized) last_recovery_.matviews_recovered++;
    for (const auto& column : state.index_columns) {
      auto index = catalog_->CreateIndex(name, column);
      if (!index.ok()) return index.status();
      last_recovery_.indexes_rebuilt++;
    }
    for (const auto& column : state.histogram_columns) {
      SQP_RETURN_IF_ERROR(catalog_->CreateHistogram(name, column));
      last_recovery_.histograms_rebuilt++;
    }
    if (state.has_view) {
      QueryGraph def = state.view_definition;
      def.SetProjections({});
      views_.Register(ViewDefinition{name, std::move(def)});
      last_recovery_.views_registered++;
    }
  }

  // Orphan GC: live pages referenced by no recovered table are the
  // remains of half-built (uncommitted) work — free them, node by node.
  std::set<page_id_t> owned;
  for (const auto& name : catalog_->TableNames()) {
    for (page_id_t page_id : catalog_->GetTable(name)->heap->pages()) {
      owned.insert(page_id);
    }
  }
  for (page_id_t page_id : disk_->LivePages()) {
    if (owned.count(page_id) > 0) continue;
    pool_->EvictPage(page_id);
    SQP_RETURN_IF_ERROR(disk_->DeallocatePage(page_id));
    last_recovery_.orphan_pages_collected++;
  }
  // Staged rebalance/repair copies a crash cut loose (allocated on the
  // target but never committed into a placement) are physical orphans:
  // free them before the audit below.
  last_recovery_.physical_orphans_collected = disk_->CollectPhysicalOrphans();
  // Per-node audit: after GC no surviving node may hold physical pages
  // that no logical page references.
  last_recovery_.orphan_pages_per_node_audit = disk_->OrphanPhysicalPages();
  last_recovery_.torn_pages_detected =
      disk_->checksum_failures() - checksum_failures_before;
  last_recovery_.recovery_sim_seconds =
      meter_.ElapsedSeconds() - sim_before;
  // Mirror this recovery into the unified registry (DESIGN.md §9).
  MetricsRegistry& registry = MetricsRegistry::Global();
  registry.GetCounter("db.recovery.runs")->Increment();
  registry.GetCounter("db.recovery.tables_recovered")
      ->Increment(last_recovery_.tables_recovered);
  registry.GetCounter("db.recovery.matviews_recovered")
      ->Increment(last_recovery_.matviews_recovered);
  registry.GetCounter("db.recovery.corrupt_matviews_dropped")
      ->Increment(last_recovery_.corrupt_matviews_dropped);
  registry.GetCounter("db.recovery.matviews_lost_with_node")
      ->Increment(last_recovery_.matviews_lost_with_node);
  registry.GetCounter("db.recovery.torn_pages_detected")
      ->Increment(last_recovery_.torn_pages_detected);
  registry.GetCounter("db.recovery.orphan_pages_collected")
      ->Increment(last_recovery_.orphan_pages_collected);
  registry.GetCounter("db.recovery.physical_orphans_collected")
      ->Increment(last_recovery_.physical_orphans_collected);
  if (options_.tracer != nullptr) {
    options_.tracer->EndSpan(span, meter_.ElapsedSeconds(), "recovered");
  }
  SQP_LOG_DEBUG << "Reopen: " << last_recovery_.tables_recovered
                << " tables, " << last_recovery_.views_registered
                << " views, " << last_recovery_.orphan_pages_collected
                << " orphan pages collected, "
                << last_recovery_.corrupt_matviews_dropped
                << " corrupt matviews dropped, "
                << last_recovery_.matviews_lost_with_node
                << " matviews lost with nodes";
  return Status::OK();
}

}  // namespace sqp
