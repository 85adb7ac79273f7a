#include "exec/expression.h"

namespace sqp {

bool EvalConjunction(const std::vector<BoundSelection>& preds,
                     const Tuple& tuple) {
  for (const auto& p : preds) {
    if (!p.Eval(tuple)) return false;
  }
  return true;
}

Result<BoundSelection> BindSelection(const SelectionPred& pred,
                                     const Schema& schema) {
  auto idx = schema.ColumnIndex(pred.column);
  if (!idx.has_value()) {
    return Status::NotFound("column " + pred.column + " not in schema " +
                            schema.ToString());
  }
  BoundSelection bound;
  bound.column_index = *idx;
  bound.op = pred.op;
  bound.constant = pred.constant;
  return bound;
}

Result<std::vector<BoundSelection>> BindSelections(
    const std::vector<SelectionPred>& preds, const Schema& schema) {
  std::vector<BoundSelection> out;
  out.reserve(preds.size());
  for (const auto& p : preds) {
    auto bound = BindSelection(p, schema);
    if (!bound.ok()) return bound.status();
    out.push_back(*bound);
  }
  return out;
}

}  // namespace sqp
