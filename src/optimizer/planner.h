// Cost-based physical planner.
//
// Planning pipeline:
//   1. View matching (optional / forced): substitute applicable
//      materialized views for the base relations they cover.
//   2. Access-path selection per scan unit: sequential scan vs B+-tree
//      index scan on the most selective indexed predicate.
//   3. Join ordering: dynamic programming over connected unit subsets
//      (left-deep, hash joins for equi edges), with a cross-product
//      fallback for disconnected graphs.
//
// ViewMode mirrors the paper's two manipulation flavours (§3.2):
//   kCostBased = "query materialization" (the optimizer may use a view),
//   kForced    = "query rewriting"       (a matching view must be used).
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "catalog/catalog.h"
#include "exec/executors.h"
#include "exec/plan_profile.h"
#include "optimizer/cost.h"
#include "optimizer/query_graph.h"
#include "optimizer/view_matcher.h"

namespace sqp {

enum class ViewMode { kNone, kCostBased, kForced };

struct PlanNode {
  enum class Kind { kSeqScan, kIndexScan, kHashJoin, kNestedLoopJoin };
  Kind kind = Kind::kSeqScan;

  // --- scans ---
  std::string table;  // stored table (base relation or view table)
  std::vector<SelectionPred> predicates;  // residual, applied at the scan
  /// Range pairs (`a > lo AND a < hi`) condensed to single fused
  /// BETWEEN terms (kSeqScan only): {lower, upper} bounds on one
  /// column, evaluated with a single column decode. Split out of
  /// `predicates` after access-path selection, so selectivity
  /// estimates and the scan-vs-index choice are untouched.
  std::vector<std::pair<SelectionPred, SelectionPred>> fused_predicates;
  std::string index_column;               // kIndexScan
  std::optional<SelectionPred> index_pred;  // pred served by the index

  // --- joins ---
  std::unique_ptr<PlanNode> left;
  std::unique_ptr<PlanNode> right;
  /// Equijoin column-name pairs (left side name, right side name). The
  /// first pair drives the hash join; the rest become residual
  /// column-column filters. Empty => cross product (kNestedLoopJoin).
  std::vector<std::pair<std::string, std::string>> join_columns;

  // --- estimates ---
  double est_rows = 0;
  double est_cost = 0;  // simulated seconds, inclusive of children
  Schema schema;

  // --- shard placement (DESIGN.md §14; joins on a multi-node tier) ---
  /// Both sides hash-partitioned on the join key: no rows cross nodes.
  bool shard_local = false;
  /// At least one side must repartition; est_cost includes the
  /// transfer term and the built executor charges `transfer_pages`
  /// block reads (`storage.node.cross_shard_pages`).
  bool cross_shard = false;
  double transfer_pages = 0;  // estimated pages shipped across nodes

  std::string Explain(int indent = 0) const;
};

struct PhysicalPlan {
  std::unique_ptr<PlanNode> root;
  std::vector<std::string> views_used;
  double est_cost = 0;
  double est_rows = 0;

  std::string Explain() const;
};

class Planner {
 public:
  /// `placement` (nullable, not owned) activates shard-aware join
  /// costing (DESIGN.md §14). Null — or a single-node provider —
  /// reproduces the shard-oblivious planner bit for bit.
  Planner(const Catalog* catalog, CostConfig config,
          const PlacementProvider* placement = nullptr)
      : catalog_(catalog),
        estimator_(catalog, config, placement),
        config_(config) {}

  /// Plan `query`. `views` may be null (no rewriting). With kForced,
  /// every applicable view (greedy, largest first, disjoint) is used;
  /// with kCostBased the rewritten and unrewritten plans are costed and
  /// the cheaper wins.
  Result<PhysicalPlan> Plan(const QueryGraph& query,
                            const ViewRegistry* views = nullptr,
                            ViewMode mode = ViewMode::kNone) const;

  /// Estimated cost (simulated seconds) of the best plan; convenience
  /// for the speculation cost model.
  Result<double> EstimateCost(const QueryGraph& query,
                              const ViewRegistry* views = nullptr,
                              ViewMode mode = ViewMode::kNone) const;

  /// Turn a plan into an executor tree. With `profile` set, every
  /// operator is wrapped in an EXPLAIN ANALYZE decorator (DESIGN.md
  /// §11) and `profile->root` mirrors the executor tree; estimates come
  /// from the PlanNode tree (a multi-edge join's composite estimate is
  /// assigned to both the HashJoin and its residual ColumnFilter).
  Result<std::unique_ptr<Executor>> Build(const PhysicalPlan& plan,
                                          Catalog* catalog, BufferPool* pool,
                                          CostMeter* meter,
                                          PlanProfile* profile = nullptr) const;

  const CardinalityEstimator& estimator() const { return estimator_; }

 private:
  Result<PhysicalPlan> PlanRewritten(const RewrittenQuery& rewritten) const;
  /// Best scan plan for one unit.
  Result<std::unique_ptr<PlanNode>> PlanScan(const RewriteUnit& unit) const;

  /// `profile` (nullable) receives this node's OperatorProfile subtree.
  Result<std::unique_ptr<Executor>> BuildNode(
      const PlanNode* node, Catalog* catalog, BufferPool* pool,
      CostMeter* meter, std::unique_ptr<OperatorProfile>* profile) const;

  const Catalog* catalog_;
  CardinalityEstimator estimator_;
  CostConfig config_;
};

}  // namespace sqp
