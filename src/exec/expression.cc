#include "exec/expression.h"

namespace sqp {

bool EvalConjunction(const std::vector<BoundSelection>& preds,
                     const Tuple& tuple) {
  for (const auto& p : preds) {
    if (!p.Eval(tuple)) return false;
  }
  return true;
}

void EvalConjunctionBatch(const std::vector<BoundSelection>& preds,
                          const Tuple* rows, size_t count,
                          std::vector<uint32_t>* selection) {
  selection->clear();
  if (count == 0) return;
  if (preds.empty()) {
    selection->reserve(count);
    for (size_t i = 0; i < count; i++) {
      selection->push_back(static_cast<uint32_t>(i));
    }
    return;
  }
  // First predicate seeds the selection...
  {
    const BoundSelection& p = preds[0];
    selection->reserve(count);
    for (size_t i = 0; i < count; i++) {
      if (p.Eval(rows[i])) selection->push_back(static_cast<uint32_t>(i));
    }
  }
  // ...each later predicate compacts the survivors in place.
  for (size_t k = 1; k < preds.size() && !selection->empty(); k++) {
    const BoundSelection& p = preds[k];
    size_t kept = 0;
    for (uint32_t idx : *selection) {
      if (p.Eval(rows[idx])) (*selection)[kept++] = idx;
    }
    selection->resize(kept);
  }
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
