#include "optimizer/planner.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <map>
#include <set>
#include <sstream>

#include "common/metrics_registry.h"

namespace sqp {

namespace {

KeyRange RangeFromPred(const SelectionPred& pred) {
  switch (pred.op) {
    case CompareOp::kEq:
      return KeyRange::Exactly(pred.constant);
    case CompareOp::kLt:
      return KeyRange{std::nullopt, true, pred.constant, false};
    case CompareOp::kLe:
      return KeyRange{std::nullopt, true, pred.constant, true};
    case CompareOp::kGt:
      return KeyRange{pred.constant, false, std::nullopt, true};
    case CompareOp::kGe:
      return KeyRange{pred.constant, true, std::nullopt, true};
    case CompareOp::kNe:
      break;
  }
  assert(false && "kNe is not indexable");
  return KeyRange::All();
}

}  // namespace

// ---------------------------------------------------------------- Explain

std::string PlanNode::Explain(int indent) const {
  std::ostringstream os;
  std::string pad(indent * 2, ' ');
  os << pad;
  switch (kind) {
    case Kind::kSeqScan:
      os << "SeqScan(" << table;
      break;
    case Kind::kIndexScan:
      os << "IndexScan(" << table << " via " << index_column;
      break;
    case Kind::kHashJoin:
      os << "HashJoin(";
      break;
    case Kind::kNestedLoopJoin:
      os << "NestedLoopJoin(";
      break;
  }
  if (kind == Kind::kSeqScan || kind == Kind::kIndexScan) {
    for (const auto& p : predicates) os << ", " << p.ToString();
    for (const auto& [lo, hi] : fused_predicates) {
      os << ", between(" << lo.ToString() << ", " << hi.ToString() << ")";
    }
    if (index_pred.has_value()) os << ", [" << index_pred->ToString() << "]";
  } else {
    bool first = true;
    for (const auto& [l, r] : join_columns) {
      if (!first) os << " AND ";
      os << l << "=" << r;
      first = false;
    }
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), ") rows=%.0f cost=%.4fs", est_rows,
                est_cost);
  os << buf;
  // Placement annotations only ever appear on a multi-node tier, so
  // single-node EXPLAIN output is unchanged (DESIGN.md §14).
  if (shard_local) {
    os << " [shard-local]";
  } else if (cross_shard) {
    std::snprintf(buf, sizeof(buf), " [cross-shard xfer=%.0fpg]",
                  transfer_pages);
    os << buf;
  }
  os << "\n";
  if (left) os << left->Explain(indent + 1);
  if (right) os << right->Explain(indent + 1);
  return os.str();
}

std::string PhysicalPlan::Explain() const {
  std::ostringstream os;
  os << "Plan";
  if (!views_used.empty()) {
    os << " [views:";
    for (const auto& v : views_used) os << " " << v;
    os << "]";
  }
  os << "\n";
  if (root) os << root->Explain(1);
  return os.str();
}

// --------------------------------------------------------------- PlanScan

Result<std::unique_ptr<PlanNode>> Planner::PlanScan(
    const RewriteUnit& unit) const {
  const TableInfo* info = catalog_->GetTable(unit.stored_table);
  if (info == nullptr) {
    return Status::NotFound("table " + unit.stored_table);
  }
  double base_rows = estimator_.TableRows(unit.stored_table);
  double out_rows = base_rows;
  for (const auto& pred : unit.selections) {
    out_rows *= estimator_.SelectionSelectivity(unit.stored_table, pred);
  }

  auto node = std::make_unique<PlanNode>();
  node->table = unit.stored_table;
  node->schema = info->schema;
  node->est_rows = out_rows;

  // Default: sequential scan with all predicates pushed down.
  node->kind = PlanNode::Kind::kSeqScan;
  node->predicates = unit.selections;
  node->est_cost = estimator_.SeqScanCost(unit.stored_table);

  // Index-scan alternatives: one per indexed, indexable predicate.
  for (const auto& pred : unit.selections) {
    if (pred.op == CompareOp::kNe) continue;
    if (!catalog_->HasIndex(unit.stored_table, pred.column)) continue;
    double idx_rows =
        base_rows * estimator_.SelectionSelectivity(unit.stored_table, pred);
    double cost = estimator_.IndexScanCost(unit.stored_table, idx_rows);
    if (cost < node->est_cost) {
      node->kind = PlanNode::Kind::kIndexScan;
      node->index_column = pred.column;
      node->index_pred = pred;
      node->predicates.clear();
      for (const auto& other : unit.selections) {
        if (other.Key() != pred.Key()) node->predicates.push_back(other);
      }
      node->est_cost = cost;
    }
  }

  // Condense range pairs (`a > lo AND a < hi`) on one column into a
  // single fused BETWEEN term: the scan evaluates both bounds with one
  // predicate (one column decode on the late-materializing path).
  // Runs after access-path selection on the surviving seq-scan list,
  // so selectivity estimates and the scan-vs-index choice are
  // byte-identical to the unfused planner.
  if (node->kind == PlanNode::Kind::kSeqScan) {
    auto is_lower = [](CompareOp op) {
      return op == CompareOp::kGt || op == CompareOp::kGe;
    };
    auto is_upper = [](CompareOp op) {
      return op == CompareOp::kLt || op == CompareOp::kLe;
    };
    std::vector<SelectionPred> rest;
    rest.reserve(node->predicates.size());
    for (const SelectionPred& pred : node->predicates) {
      bool fused = false;
      if (is_lower(pred.op) || is_upper(pred.op)) {
        for (size_t i = 0; i < rest.size(); i++) {
          const SelectionPred& other = rest[i];
          if (other.column != pred.column) continue;
          if (is_lower(other.op) && is_upper(pred.op)) {
            node->fused_predicates.emplace_back(other, pred);
          } else if (is_upper(other.op) && is_lower(pred.op)) {
            node->fused_predicates.emplace_back(pred, other);
          } else {
            continue;
          }
          rest.erase(rest.begin() + i);
          fused = true;
          break;
        }
      }
      if (!fused) rest.push_back(pred);
    }
    node->predicates = std::move(rest);
  }
  return node;
}

// ----------------------------------------------------------- Join order DP

Result<PhysicalPlan> Planner::PlanRewritten(
    const RewrittenQuery& rewritten,
    const std::vector<std::string>& projections) const {
  const size_t n = rewritten.units.size();
  if (n == 0) return Status::InvalidArgument("empty query");
  if (n > 16) return Status::NotSupported("more than 16 scan units");

  // Per-unit scan plans.
  std::vector<std::unique_ptr<PlanNode>> scans;
  scans.reserve(n);
  for (const auto& unit : rewritten.units) {
    auto scan = PlanScan(unit);
    if (!scan.ok()) return scan.status();
    scans.push_back(std::move(*scan));
  }

  auto unit_of_relation = [&](const std::string& rel) -> int {
    for (size_t i = 0; i < n; i++) {
      const auto& cov = rewritten.units[i].covered_relations;
      if (std::find(cov.begin(), cov.end(), rel) != cov.end()) {
        return static_cast<int>(i);
      }
    }
    return -1;
  };

  // Join edges between units.
  struct UnitEdge {
    size_t a, b;  // unit indices, a < b
    JoinPred pred;
  };
  std::vector<UnitEdge> edges;
  for (const auto& j : rewritten.joins) {
    int ua = unit_of_relation(j.left_table);
    int ub = unit_of_relation(j.right_table);
    if (ua < 0 || ub < 0 || ua == ub) continue;
    UnitEdge e;
    e.a = std::min(ua, ub);
    e.b = std::max(ua, ub);
    e.pred = j;
    edges.push_back(std::move(e));
  }

  const double cpu = config_.cpu_seconds_per_tuple;
  const double io = config_.io_seconds_per_block;
  const double kInf = std::numeric_limits<double>::infinity();

  // Tuple widths, for the Grace-hash-join spill estimate.
  std::vector<double> unit_width(n);
  for (size_t u = 0; u < n; u++) {
    unit_width[u] = static_cast<double>(scans[u]->schema.EstimatedTupleWidth());
  }
  auto subset_width = [&](uint32_t subset) {
    double w = 0;
    for (size_t u = 0; u < n; u++) {
      if ((subset >> u) & 1) w += unit_width[u];
    }
    return w;
  };
  auto pages_of = [&](double rows, double width) {
    return std::ceil(std::max(0.0, rows) * width /
                     static_cast<double>(kPageSize));
  };

  // ---- shard placement (DESIGN.md §14) -----------------------------
  // On a multi-node tier each scan unit carries the "relation.column"
  // key it is hash-partitioned on (base tables: their shard column;
  // matviews: nothing). A hash join whose connecting edge matches a
  // partition key on both sides is shard-local; otherwise at least one
  // side repartitions and the plan pays a simulated transfer charge.
  const bool placement = estimator_.placement_active();
  std::vector<std::set<std::string>> unit_partition(n);
  std::vector<double> unit_cross_fraction(n, 0.0);
  double default_cross = 0.0;
  if (placement) {
    default_cross = estimator_.CrossShardFractionDefault();
    for (size_t u = 0; u < n; u++) {
      const std::string& stored = rewritten.units[u].stored_table;
      TablePlacement p =
          estimator_.placement()->TablePlacementOf(stored);
      // All sharded tables on one tier share the global slot map (and
      // so the same slot count), which is what makes matching keys on
      // both sides sufficient for locality.
      if (p.sharded) unit_partition[u].insert(stored + "." + p.shard_column);
      unit_cross_fraction[u] = estimator_.CrossShardFraction(stored);
    }
  }

  struct DpState {
    double cost = std::numeric_limits<double>::infinity();
    double rows = 0;
    int added_unit = -1;
    uint32_t prev_subset = 0;
    bool cross = false;
    // Placement of the accumulated intermediate (multi-node tiers).
    bool shard_local = false;      // the step that built this subset
    double transfer_pages = 0;     // pages shipped by that step
    std::set<std::string> partition;  // co-partition keys it preserves
  };
  std::vector<DpState> dp(size_t{1} << n);

  for (size_t u = 0; u < n; u++) {
    DpState& s = dp[size_t{1} << u];
    s.cost = scans[u]->est_cost;
    s.rows = std::max(0.0, scans[u]->est_rows);
    s.added_unit = static_cast<int>(u);
    if (placement) s.partition = unit_partition[u];
  }

  // Edges connecting unit u to subset s.
  auto connecting = [&](uint32_t subset, size_t u) {
    std::vector<const UnitEdge*> out;
    for (const auto& e : edges) {
      if ((e.a == u && (subset >> e.b) & 1) ||
          (e.b == u && (subset >> e.a) & 1)) {
        out.push_back(&e);
      }
    }
    return out;
  };

  // Combined selectivity of a set of connecting edges: edges between
  // the same relation pair form a composite join (correlation-aware);
  // distinct pairs multiply.
  auto connection_selectivity =
      [&](const std::vector<const UnitEdge*>& conn) {
        std::map<std::string, std::vector<JoinPred>> by_pair;
        for (const auto* e : conn) {
          JoinPred c = e->pred;
          c.Canonicalize();
          by_pair[c.left_table + "|" + c.right_table].push_back(c);
        }
        double sel = 1.0;
        for (const auto& [pair, group] : by_pair) {
          sel *= estimator_.CompositeJoinSelectivity(group);
        }
        return sel;
      };

  for (int pass = 0; pass < 2; pass++) {
    bool allow_cross = pass == 1;
    if (allow_cross && dp.back().cost < kInf) break;  // connected plan found
    for (uint32_t subset = 1; subset < dp.size(); subset++) {
      if (dp[subset].cost >= kInf) continue;
      for (size_t u = 0; u < n; u++) {
        if ((subset >> u) & 1) continue;
        auto conn = connecting(subset, u);
        if (conn.empty() && !allow_cross) continue;
        uint32_t next = subset | (uint32_t{1} << u);
        double sel = connection_selectivity(conn);
        double out_rows = dp[subset].rows * dp[size_t{1} << u].rows * sel;
        double cost;
        bool local = false;
        double xfer_pages = 0;
        if (!conn.empty()) {
          // Hash join: build accumulated side, probe unit side.
          cost = dp[subset].cost + scans[u]->est_cost +
                 cpu * (dp[subset].rows + dp[size_t{1} << u].rows + out_rows);
          double build_pages = pages_of(dp[subset].rows,
                                        subset_width(subset));
          double probe_pages =
              pages_of(dp[size_t{1} << u].rows, unit_width[u]);
          // Grace spill when the build side exceeds the hash area.
          if (build_pages >
              static_cast<double>(config_.hash_join_memory_pages)) {
            cost += 2.0 * io * (build_pages + probe_pages);
          }
          if (placement) {
            // Shard-local iff some connecting edge matches a partition
            // key on both sides: every matching build row already
            // lives on the probe row's node.
            for (const auto* e : conn) {
              const JoinPred& j = e->pred;
              bool left_is_unit =
                  unit_of_relation(j.left_table) == static_cast<int>(u);
              std::string ukey = left_is_unit
                                     ? j.left_table + "." + j.left_column
                                     : j.right_table + "." + j.right_column;
              std::string skey = left_is_unit
                                     ? j.right_table + "." + j.right_column
                                     : j.left_table + "." + j.left_column;
              if (dp[subset].partition.count(skey) > 0 &&
                  unit_partition[u].count(ukey) > 0) {
                local = true;
                break;
              }
            }
            if (!local) {
              // Cross-shard: each side ships the fraction of its pages
              // not already on the node the tier-wide repartition
              // assigns them to. A single-table build side uses its
              // actual page distribution; a joined intermediate is
              // assumed spread like the slot map.
              double build_fraction =
                  (subset & (subset - 1)) == 0
                      ? unit_cross_fraction[static_cast<size_t>(
                            dp[subset].added_unit)]
                      : default_cross;
              xfer_pages = build_pages * build_fraction +
                           probe_pages * unit_cross_fraction[u];
              cost += estimator_.ShuffleTransferSeconds(xfer_pages);
            }
          }
        } else {
          // Cross product via nested loops.
          cost = dp[subset].cost + scans[u]->est_cost +
                 cpu * (dp[subset].rows * dp[size_t{1} << u].rows + out_rows);
        }
        if (cost < dp[next].cost) {
          DpState state;
          state.cost = cost;
          state.rows = out_rows;
          state.added_unit = static_cast<int>(u);
          state.prev_subset = subset;
          state.cross = conn.empty();
          if (placement && !conn.empty()) {
            state.shard_local = local;
            state.transfer_pages = xfer_pages;
            if (local) {
              // A local join preserves both sides' partitioning.
              state.partition = dp[subset].partition;
              state.partition.insert(unit_partition[u].begin(),
                                     unit_partition[u].end());
            } else {
              // The shuffle repartitions the output on the driving
              // hash edge (both of its endpoints).
              const JoinPred& j0 = conn.front()->pred;
              state.partition.insert(j0.left_table + "." + j0.left_column);
              state.partition.insert(j0.right_table + "." + j0.right_column);
            }
          }
          dp[next] = std::move(state);
        }
      }
    }
  }

  uint32_t full = static_cast<uint32_t>(dp.size() - 1);
  if (dp[full].cost >= kInf) {
    return Status::Internal("join ordering failed to cover all units");
  }

  // Reconstruct the unit order.
  std::vector<int> order;
  uint32_t cur = full;
  while (cur != 0) {
    order.push_back(dp[cur].added_unit);
    cur = dp[cur].prev_subset;
  }
  std::reverse(order.begin(), order.end());

  // Build the left-deep tree.
  std::set<std::string> covered;  // relations in the accumulated side
  auto covers = [&](const std::string& rel) {
    return covered.count(rel) > 0;
  };
  std::unique_ptr<PlanNode> root = std::move(scans[order[0]]);
  for (const auto& rel : rewritten.units[order[0]].covered_relations) {
    covered.insert(rel);
  }
  uint32_t subset = uint32_t{1} << order[0];
  for (size_t i = 1; i < order.size(); i++) {
    size_t u = order[i];
    auto conn = connecting(subset, u);
    auto join = std::make_unique<PlanNode>();
    join->schema = root->schema.Concat(scans[u]->schema);
    for (const auto* e : conn) {
      const JoinPred& j = e->pred;
      if (covers(j.left_table)) {
        join->join_columns.emplace_back(j.left_column, j.right_column);
      } else {
        join->join_columns.emplace_back(j.right_column, j.left_column);
      }
    }
    join->kind = conn.empty() ? PlanNode::Kind::kNestedLoopJoin
                              : PlanNode::Kind::kHashJoin;
    uint32_t next = subset | (uint32_t{1} << u);
    join->est_rows = dp[next].rows;
    join->est_cost = dp[next].cost;
    if (placement && join->kind == PlanNode::Kind::kHashJoin) {
      join->shard_local = dp[next].shard_local;
      join->cross_shard = !dp[next].shard_local;
      join->transfer_pages = dp[next].transfer_pages;
    }
    join->left = std::move(root);
    join->right = std::move(scans[u]);
    root = std::move(join);
    for (const auto& rel : rewritten.units[u].covered_relations) {
      covered.insert(rel);
    }
    subset = next;
  }

  PhysicalPlan plan;
  plan.est_cost = root->est_cost;
  plan.est_rows = root->est_rows;
  plan.root = std::move(root);
  plan.projections = projections;
  plan.views_used = rewritten.view_tables_used;
  return plan;
}

// ------------------------------------------------------------------- Plan

namespace {
/// Greedy disjoint cover over a preference-ordered candidate list.
std::vector<const ViewDefinition*> GreedyCover(
    const std::vector<const ViewDefinition*>& candidates) {
  std::vector<const ViewDefinition*> chosen;
  std::set<std::string> covered;
  for (const ViewDefinition* view : candidates) {
    bool overlaps = false;
    for (const auto& rel : view->definition.relations()) {
      if (covered.count(rel) > 0) {
        overlaps = true;
        break;
      }
    }
    if (overlaps) continue;
    chosen.push_back(view);
    for (const auto& rel : view->definition.relations()) covered.insert(rel);
  }
  return chosen;
}
}  // namespace

Result<PhysicalPlan> Planner::Plan(const QueryGraph& query,
                                   const ViewRegistry* views,
                                   ViewMode mode) const {
  // Baseline rewrite: every relation is its own unit.
  std::vector<const ViewDefinition*> no_views;
  RewrittenQuery baseline = RewriteWithViews(query, no_views);
  auto base_plan = PlanRewritten(baseline, query.projections());

  if (views == nullptr || mode == ViewMode::kNone || views->size() == 0) {
    return base_plan;
  }

  std::vector<const ViewDefinition*> applicable =
      ApplicableViews(*views, query);
  if (applicable.empty()) return base_plan;

  // Two candidate covers: widest coverage first (fewest joins left) and
  // cheapest-to-scan first (a tiny selective materialization can beat a
  // wide pre-joined view even though it covers fewer relations).
  std::vector<std::vector<const ViewDefinition*>> covers;
  covers.push_back(GreedyCover(applicable));
  std::vector<const ViewDefinition*> by_cost = applicable;
  std::stable_sort(by_cost.begin(), by_cost.end(),
                   [&](const ViewDefinition* a, const ViewDefinition* b) {
                     return estimator_.TablePages(a->table_name) <
                            estimator_.TablePages(b->table_name);
                   });
  covers.push_back(GreedyCover(by_cost));

  std::optional<PhysicalPlan> best_view_plan;
  for (const auto& cover : covers) {
    if (cover.empty()) continue;
    RewrittenQuery rewritten = RewriteWithViews(query, cover);
    auto plan = PlanRewritten(rewritten, query.projections());
    if (!plan.ok()) continue;
    if (!best_view_plan.has_value() ||
        plan->est_cost < best_view_plan->est_cost) {
      best_view_plan = std::move(*plan);
    }
  }
  if (!best_view_plan.has_value()) return base_plan;

  if (mode == ViewMode::kForced) {
    // Forced rewriting with a bounded blast radius: when even the
    // optimizer's own estimate says the rewritten plan is several times
    // worse than the base plan (e.g. a fused view blocks the only good
    // join order), fall back. Mild penalties — the paper's Figure 5 min
    // bars — still occur from estimation error within the factor.
    constexpr double kForcedFallbackFactor = 3.0;
    if (base_plan.ok() &&
        best_view_plan->est_cost >
            base_plan->est_cost * kForcedFallbackFactor) {
      return base_plan;
    }
    return std::move(*best_view_plan);
  }
  // Cost-based: pick the cheaper of base and the best view plan.
  if (!base_plan.ok()) return std::move(*best_view_plan);
  return best_view_plan->est_cost <= base_plan->est_cost
             ? std::move(*best_view_plan)
             : std::move(base_plan);
}

Result<double> Planner::EstimateCost(const QueryGraph& query,
                                     const ViewRegistry* views,
                                     ViewMode mode) const {
  auto plan = Plan(query, views, mode);
  if (!plan.ok()) return plan.status();
  return plan->est_cost;
}

// ------------------------------------------------------------------ Build

namespace {

/// Deterministic one-line description of a scan/join node for the plan
/// profile (same vocabulary as PlanNode::Explain, minus the estimates
/// which OperatorProfile carries separately).
std::string NodeDetail(const PlanNode* node) {
  std::ostringstream os;
  switch (node->kind) {
    case PlanNode::Kind::kSeqScan:
    case PlanNode::Kind::kIndexScan:
      os << node->table;
      if (node->kind == PlanNode::Kind::kIndexScan) {
        os << " via " << node->index_column;
      }
      for (const auto& p : node->predicates) os << ", " << p.ToString();
      for (const auto& [lo, hi] : node->fused_predicates) {
        os << ", between(" << lo.ToString() << ", " << hi.ToString() << ")";
      }
      if (node->index_pred.has_value()) {
        os << ", [" << node->index_pred->ToString() << "]";
      }
      break;
    case PlanNode::Kind::kHashJoin:
    case PlanNode::Kind::kNestedLoopJoin: {
      bool first = true;
      for (const auto& [l, r] : node->join_columns) {
        if (!first) os << " AND ";
        os << l << "=" << r;
        first = false;
      }
      if (node->shard_local) {
        os << " [shard-local]";
      } else if (node->cross_shard) {
        os << " [cross-shard]";
      }
      break;
    }
  }
  return os.str();
}

/// Charges a cross-shard hash join's estimated transfer once, at Init,
/// on the query's CostMeter. The charge is a planner estimate — a pure
/// function of catalog stats and the shard map, never of physical read
/// routing, replica failover, or batch size — so chaos/crash/node-loss
/// sweeps and the §10 batch charge-parity invariant stay bit-identical.
/// The page count is mirrored into `storage.node.cross_shard_pages`,
/// which EXPLAIN ANALYZE diffs per operator (DESIGN.md §14).
class ShuffleChargeExecutor : public Executor {
 public:
  ShuffleChargeExecutor(std::unique_ptr<Executor> inner, CostMeter* meter,
                        uint64_t pages)
      : inner_(std::move(inner)),
        meter_(meter),
        pages_(pages),
        counter_(MetricsRegistry::Global().GetCounter(
            "storage.node.cross_shard_pages")) {}

  Status Init() override {
    if (!charged_) {
      charged_ = true;
      meter_->ChargeBlockRead(pages_);
      counter_->Increment(pages_);
    }
    return inner_->Init();
  }

  Result<bool> NextBatch(TupleBatch* out) override {
    return inner_->NextBatch(out);
  }

  const Schema& output_schema() const override {
    return inner_->output_schema();
  }

 private:
  std::unique_ptr<Executor> inner_;
  CostMeter* meter_;
  uint64_t pages_;
  Counter* counter_;
  bool charged_ = false;
};

/// When profiling, wrap `exec` in a MakeProfiled decorator under a new
/// OperatorProfile node placed into `*profile`. No-op without profile.
std::unique_ptr<Executor> MaybeProfile(
    std::unique_ptr<Executor> exec, std::string op, std::string detail,
    double est_rows, const CostMeter* meter,
    std::vector<std::unique_ptr<OperatorProfile>> children,
    std::unique_ptr<OperatorProfile>* profile) {
  if (profile == nullptr) return exec;
  auto node = std::make_unique<OperatorProfile>();
  node->op = std::move(op);
  node->detail = std::move(detail);
  node->est_rows = est_rows;
  node->children = std::move(children);
  exec = MakeProfiled(std::move(exec), meter, node.get());
  *profile = std::move(node);
  return exec;
}

}  // namespace

Result<std::unique_ptr<Executor>> Planner::BuildNode(
    const PlanNode* node, Catalog* catalog, BufferPool* pool, CostMeter* meter,
    std::unique_ptr<OperatorProfile>* profile) const {
  switch (node->kind) {
    case PlanNode::Kind::kSeqScan: {
      TableInfo* info = catalog->GetTable(node->table);
      if (info == nullptr) return Status::NotFound("table " + node->table);
      auto preds = BindSelections(node->predicates, info->schema);
      if (!preds.ok()) return preds.status();
      // Fused BETWEEN terms: bind both bounds into one BoundSelection
      // so each surviving row decodes the column once.
      for (const auto& [lo, hi] : node->fused_predicates) {
        auto lower = BindSelection(lo, info->schema);
        if (!lower.ok()) return lower.status();
        auto upper = BindSelection(hi, info->schema);
        if (!upper.ok()) return upper.status();
        BoundSelection fused = std::move(*lower);
        fused.has_upper = true;
        fused.upper_op = upper->op;
        fused.upper = std::move(upper->constant);
        preds->push_back(std::move(fused));
      }
      std::unique_ptr<Executor> scan(
          new SeqScanExecutor(info, pool, meter, std::move(*preds)));
      return MaybeProfile(std::move(scan), "SeqScan", NodeDetail(node),
                          node->est_rows, meter, {}, profile);
    }
    case PlanNode::Kind::kIndexScan: {
      TableInfo* info = catalog->GetTable(node->table);
      if (info == nullptr) return Status::NotFound("table " + node->table);
      BPlusTree* index = catalog->GetIndex(node->table, node->index_column);
      if (index == nullptr) {
        return Status::Internal("planned index missing: " + node->table +
                                "." + node->index_column);
      }
      auto preds = BindSelections(node->predicates, info->schema);
      if (!preds.ok()) return preds.status();
      assert(node->index_pred.has_value());
      std::unique_ptr<Executor> scan(new IndexScanExecutor(
          info, index, RangeFromPred(*node->index_pred), pool, meter,
          std::move(*preds)));
      return MaybeProfile(std::move(scan), "IndexScan", NodeDetail(node),
                          node->est_rows, meter, {}, profile);
    }
    case PlanNode::Kind::kHashJoin:
    case PlanNode::Kind::kNestedLoopJoin: {
      std::unique_ptr<OperatorProfile> lprof, rprof;
      auto left = BuildNode(node->left.get(), catalog, pool, meter,
                            profile != nullptr ? &lprof : nullptr);
      if (!left.ok()) return left.status();
      auto right = BuildNode(node->right.get(), catalog, pool, meter,
                             profile != nullptr ? &rprof : nullptr);
      if (!right.ok()) return right.status();
      const Schema& lschema = (*left)->output_schema();
      const Schema& rschema = (*right)->output_schema();

      std::vector<std::unique_ptr<OperatorProfile>> kids;
      if (profile != nullptr) {
        kids.push_back(std::move(lprof));
        kids.push_back(std::move(rprof));
      }
      if (node->kind == PlanNode::Kind::kNestedLoopJoin) {
        std::unique_ptr<Executor> nlj(new NestedLoopJoinExecutor(
            std::move(*left), std::move(*right), {}, meter));
        return MaybeProfile(std::move(nlj), "NestedLoopJoin",
                            NodeDetail(node), node->est_rows, meter,
                            std::move(kids), profile);
      }
      assert(!node->join_columns.empty());
      auto [lcol0, rcol0] = node->join_columns.front();
      auto lidx = lschema.ColumnIndex(lcol0);
      auto ridx = rschema.ColumnIndex(rcol0);
      if (!lidx.has_value() || !ridx.has_value()) {
        return Status::Internal("join column not found: " + lcol0 + "/" +
                                rcol0);
      }
      // The optimizer's build-side cardinality estimate pre-sizes the
      // join's hash table (a hint only — never affects results/costs).
      size_t build_rows_hint =
          node->left->est_rows > 0
              ? static_cast<size_t>(node->left->est_rows)
              : 0;
      std::unique_ptr<Executor> join(new HashJoinExecutor(
          std::move(*left), std::move(*right), *lidx, *ridx, meter,
          build_rows_hint));
      // Cross-shard joins charge their estimated transfer at Init,
      // inside the profiling wrapper so EXPLAIN ANALYZE attributes the
      // pages to this operator (DESIGN.md §14).
      if (node->cross_shard && node->transfer_pages > 0) {
        join = std::make_unique<ShuffleChargeExecutor>(
            std::move(join), meter,
            static_cast<uint64_t>(std::ceil(node->transfer_pages)));
      }
      // The planner costs the whole multi-edge join as one unit, so the
      // HashJoin and its residual ColumnFilter both carry the composite
      // output estimate (there is no per-edge estimate to split out).
      std::string join_detail = lcol0 + "=" + rcol0;
      if (node->shard_local) {
        join_detail += " [shard-local]";
      } else if (node->cross_shard) {
        join_detail += " [cross-shard]";
      }
      join = MaybeProfile(std::move(join), "HashJoin", join_detail,
                          node->est_rows, meter, std::move(kids), profile);
      if (node->join_columns.size() > 1) {
        std::vector<ColumnFilterExecutor::Condition> conds;
        std::ostringstream residual;
        bool first = true;
        for (size_t i = 1; i < node->join_columns.size(); i++) {
          auto [lcol, rcol] = node->join_columns[i];
          auto li = lschema.ColumnIndex(lcol);
          auto ri = rschema.ColumnIndex(rcol);
          if (!li.has_value() || !ri.has_value()) {
            return Status::Internal("join column not found: " + lcol + "/" +
                                    rcol);
          }
          conds.push_back(ColumnFilterExecutor::Condition{
              *li, lschema.size() + *ri, CompareOp::kEq});
          if (!first) residual << " AND ";
          residual << lcol << "=" << rcol;
          first = false;
        }
        join = std::unique_ptr<Executor>(
            new ColumnFilterExecutor(std::move(join), std::move(conds), meter));
        if (profile != nullptr) {
          std::vector<std::unique_ptr<OperatorProfile>> jkids;
          jkids.push_back(std::move(*profile));
          join = MaybeProfile(std::move(join), "ColumnFilter", residual.str(),
                              node->est_rows, meter, std::move(jkids),
                              profile);
        }
      }
      return join;
    }
  }
  return Status::Internal("unknown plan node kind");
}

Result<std::unique_ptr<Executor>> Planner::Build(
    const PhysicalPlan& plan, Catalog* catalog, BufferPool* pool,
    CostMeter* meter, PlanProfile* profile) const {
  std::unique_ptr<OperatorProfile> prof;
  auto exec = BuildNode(plan.root.get(), catalog, pool, meter,
                        profile != nullptr ? &prof : nullptr);
  if (!exec.ok()) return exec.status();
  if (profile != nullptr) profile->root = std::move(prof);
  if (plan.projections.empty()) return exec;
  const Schema& schema = (*exec)->output_schema();
  std::vector<size_t> indices;
  indices.reserve(plan.projections.size());
  std::ostringstream cols;
  for (const auto& name : plan.projections) {
    auto idx = schema.ColumnIndex(name);
    if (!idx.has_value()) {
      return Status::NotFound("projection column " + name);
    }
    if (!indices.empty()) cols << ", ";
    cols << name;
    indices.push_back(*idx);
  }
  std::unique_ptr<Executor> project(
      new ProjectExecutor(std::move(*exec), std::move(indices), meter));
  if (profile != nullptr) {
    // Project preserves cardinality; it inherits the root estimate.
    OperatorProfile* node =
        profile->PushRoot("Project", cols.str(), plan.est_rows);
    project = MakeProfiled(std::move(project), meter, node);
  }
  return project;
}

}  // namespace sqp
