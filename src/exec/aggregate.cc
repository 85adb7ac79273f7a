#include "exec/aggregate.h"

#include <cassert>

namespace sqp {

HashAggregateExecutor::HashAggregateExecutor(std::unique_ptr<Executor> child,
                                             std::vector<size_t> group_by,
                                             std::vector<AggSpec> aggregates,
                                             CostMeter* meter)
    : child_(std::move(child)),
      group_by_(std::move(group_by)),
      aggregates_(std::move(aggregates)),
      meter_(meter) {
  std::vector<Column> cols;
  const Schema& in = child_->output_schema();
  for (size_t idx : group_by_) cols.push_back(in.column(idx));
  for (const AggSpec& spec : aggregates_) {
    TypeId type = TypeId::kDouble;
    if (spec.func == AggFunc::kCount) {
      type = TypeId::kInt64;
    } else if (spec.column_index != AggSpec::kStar &&
               (spec.func == AggFunc::kMin || spec.func == AggFunc::kMax)) {
      type = in.column(spec.column_index).type;
    }
    cols.push_back(Column{spec.output_name, type});
  }
  schema_ = Schema(std::move(cols));
}

Status HashAggregateExecutor::Init() {
  SQP_RETURN_IF_ERROR(child_->Init());
  TupleBatch batch;
  for (;;) {
    auto more = child_->NextBatch(&batch);
    if (!more.ok()) return more.status();
    if (batch.empty()) break;
    meter_->ChargeTuples(batch.size());
    for (const Tuple& t : batch) Accumulate(t);
  }
  out_it_ = groups_.begin();
  return Status::OK();
}

void HashAggregateExecutor::Accumulate(const Tuple& t) {
  std::string key;
  for (size_t idx : group_by_) {
    key += t[idx].ToString();
    key += "|";
  }
  Group& group = groups_[key];
  if (group.states.empty()) {
    group.states.resize(aggregates_.size());
    for (size_t idx : group_by_) group.keys.push_back(t[idx]);
  }
  for (size_t a = 0; a < aggregates_.size(); a++) {
    const AggSpec& spec = aggregates_[a];
    AggState& state = group.states[a];
    state.count++;
    if (spec.column_index == AggSpec::kStar) continue;
    const Value& v = t[spec.column_index];
    if (v.is_numeric()) state.sum += v.NumericValue();
    if (!state.min.has_value() || v < *state.min) state.min = v;
    if (!state.max.has_value() || v > *state.max) state.max = v;
  }
}

Value HashAggregateExecutor::Finalize(const AggSpec& spec,
                                      const AggState& state) const {
  switch (spec.func) {
    case AggFunc::kCount:
      return Value(static_cast<int64_t>(state.count));
    case AggFunc::kSum:
      return Value(state.sum);
    case AggFunc::kAvg:
      return Value(state.count > 0 ? state.sum / state.count : 0.0);
    case AggFunc::kMin:
      return state.min.value_or(Value(0.0));
    case AggFunc::kMax:
      return state.max.value_or(Value(0.0));
  }
  return Value(0.0);
}

std::optional<Tuple> HashAggregateExecutor::EmitGroup() {
  if (groups_.empty() && group_by_.empty() && !emitted_global_empty_) {
    // Global aggregate over an empty input: one row of zero counts.
    emitted_global_empty_ = true;
    Tuple out;
    AggState empty;
    for (const AggSpec& spec : aggregates_) {
      out.push_back(Finalize(spec, empty));
    }
    return out;
  }
  if (out_it_ == groups_.end()) return std::nullopt;
  meter_->ChargeTuples();
  const Group& group = out_it_->second;
  ++out_it_;
  Tuple out;
  out.reserve(group.keys.size() + aggregates_.size());
  out.insert(out.end(), group.keys.begin(), group.keys.end());
  for (size_t a = 0; a < aggregates_.size(); a++) {
    out.push_back(Finalize(aggregates_[a], group.states[a]));
  }
  return out;
}

Result<bool> HashAggregateExecutor::NextBatch(TupleBatch* out) {
  out->Clear();
  while (out->size() < out->target_rows()) {
    auto row = EmitGroup();
    if (!row.has_value()) break;
    out->PushRow(std::move(*row));
  }
  return exec_internal::FinishBatch(*out);
}

}  // namespace sqp
