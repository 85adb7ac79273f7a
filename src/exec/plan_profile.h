// EXPLAIN ANALYZE operator profiling (DESIGN.md §11).
//
// A PlanProfile mirrors the executor tree built for one query: one
// OperatorProfile node per operator, holding the planner's estimated
// cardinality next to the actuals observed while the query ran —
// output rows, batches produced, average batch fill, buffer-pool pages
// pinned, the simulated CostMeter charge, and real wall time. Charge
// and time figures are *inclusive of children* (like est_cost), so a
// node's numbers answer "what did this subtree cost".
//
// Collection is a decorator: MakeProfiled wraps any Executor and
// snapshots the shared CostMeter / pages-pinned counter / wall clock
// around every Init/Next/NextBatch call. Profiling never charges the
// meter, so simulated results and the DESIGN.md §10 charge-parity
// invariant are untouched; it is enabled only when a caller asks for it
// (ExecuteOptions::explain_analyze).
//
// Q-error (the classic cardinality-estimation accuracy metric):
//   q = max(est/act, act/est), with est and act clamped to >= 1 row,
// so q = 1 is a perfect estimate and q is symmetric in over/under
// estimation.
//
// Rendering is deterministic: two identical runs produce byte-identical
// FormatText/FormatJson output. Real wall time is recorded but excluded
// from rendering unless `include_wall` is set, precisely to keep the
// default output replay-stable.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/cost_meter.h"
#include "exec/executors.h"

namespace sqp {

struct OperatorProfile {
  std::string op;      // "SeqScan", "HashJoin", "ColumnFilter", ...
  std::string detail;  // table / predicates / join keys
  /// Planner's output-cardinality estimate; < 0 = no estimate exists
  /// for this operator (rendered as the child's estimate by callers
  /// that have one, or as est=? otherwise).
  double est_rows = -1;

  // --- actuals (filled in while the query runs) --------------------
  uint64_t act_rows = 0;   // rows this operator produced
  uint64_t batches = 0;    // non-empty batches produced
  uint64_t pages_pinned = 0;   // subtree page pins (batch scans)
  uint64_t tuples_charged = 0; // subtree CostMeter tuple charges
  uint64_t blocks_charged = 0; // subtree CostMeter block charges
  /// Subtree pages charged as simulated cross-shard transfer (the
  /// planner's shuffle charge, DESIGN.md §14). 0 for shard-local and
  /// single-node operators; the [cross-shard] tag in `detail` says
  /// which joins could charge.
  uint64_t cross_shard_pages = 0;
  double sim_seconds = 0;      // subtree simulated charge
  double wall_seconds = 0;     // subtree real time (non-deterministic)

  std::vector<std::unique_ptr<OperatorProfile>> children;

  /// max(est/act, act/est) with both clamped to >= 1; returns the
  /// clamped estimate itself when no estimate exists (est_rows < 0 is
  /// treated as est = act, i.e. q = 1 — callers normally assign every
  /// node an estimate).
  double QError() const;
  /// act_rows / batches (0 when no batch was produced).
  double AvgFill() const;
};

/// Profile of one executed query: the operator tree plus renderers.
struct PlanProfile {
  std::unique_ptr<OperatorProfile> root;

  /// Resource attribution of the whole execution (DESIGN.md §16):
  /// which session the query charged and its inclusive meter delta.
  /// Filled by Database::Execute* when an Attribution is active;
  /// rendered as an "attribution" block in FormatJson and a trailing
  /// line in FormatText when `present`.
  struct AttributionInfo {
    bool present = false;
    std::string session;  // "" renders as "(system)"
    double seconds = 0;   // inclusive simulated seconds
    uint64_t blocks = 0;  // inclusive block reads + writes
    uint64_t tuples = 0;  // inclusive tuple charges
  };
  AttributionInfo attribution;

  /// Indented text tree, one operator per line:
  ///   op(detail) est=N act=N q=N batches=N fill=N pages=N
  ///   tuples=N blocks=N sim=Ns [wall=Ns]
  std::string FormatText(bool include_wall = false) const;

  /// Compact single-line JSON tree with the same fields.
  std::string FormatJson(bool include_wall = false) const;
};

/// Wrap `inner` so every call accumulates into `node` (which must
/// outlive the returned executor). `meter` is the query's CostMeter.
std::unique_ptr<Executor> MakeProfiled(std::unique_ptr<Executor> inner,
                                       const CostMeter* meter,
                                       OperatorProfile* node);

}  // namespace sqp
