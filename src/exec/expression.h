// Bound predicate expressions evaluated against tuples.
//
// The engine's queries are conjunctive, so an expression is simply a
// conjunction of bound comparisons (column index vs constant). Join
// conditions are bound column-column equalities.
#pragma once

#include <string>
#include <vector>

#include "catalog/schema.h"
#include "common/compare_op.h"
#include "common/status.h"
#include "optimizer/query_graph.h"
#include "storage/tuple.h"

namespace sqp {

/// `tuple[column_index] op constant`, optionally fused with a second
/// bound on the same column (`constant <op> col <upper_op> upper`, a
/// BETWEEN). The planner condenses a `>`/`>=` + `<`/`<=` pair on one
/// column into a single fused term so the column is accessed (and, on
/// the late-materializing scan path, decoded from the serialized
/// record) once for both comparisons.
struct BoundSelection {
  size_t column_index = 0;
  CompareOp op = CompareOp::kEq;
  Value constant;
  bool has_upper = false;
  CompareOp upper_op = CompareOp::kLt;
  Value upper;

  bool Eval(const Tuple& tuple) const {
    const Value& v = tuple[column_index];
    if (!EvalCompare(v.Compare(constant), op)) return false;
    return !has_upper || EvalCompare(v.Compare(upper), upper_op);
  }
};

/// Conjunction; empty list is TRUE.
bool EvalConjunction(const std::vector<BoundSelection>& preds,
                     const Tuple& tuple);

/// Bind `pred` against `schema` (resolving its column name to an index).
Result<BoundSelection> BindSelection(const SelectionPred& pred,
                                     const Schema& schema);

/// Bind a list of predicates against one schema.
Result<std::vector<BoundSelection>> BindSelections(
    const std::vector<SelectionPred>& preds, const Schema& schema);

}  // namespace sqp
