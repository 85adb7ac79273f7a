// Hash aggregation: GROUP BY + COUNT/SUM/AVG/MIN/MAX.
//
// The paper's framework targets conjunctive (SPJ) queries and notes the
// formulation "would remain valid for general queries as well, e.g.,
// queries with aggregates" (§2). This operator provides that extension:
// aggregation sits on top of the (speculatively rewritten) SPJ core, so
// speculation benefits aggregate queries unchanged.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/agg_func.h"
#include "exec/executors.h"

namespace sqp {

struct AggSpec {
  AggFunc func = AggFunc::kCount;
  /// Input column; ignored for COUNT(*) (use kStar).
  size_t column_index = 0;
  static constexpr size_t kStar = static_cast<size_t>(-1);
  /// Output column name ("count(*)", "sum(l_quantity)", ...).
  std::string output_name;
};

class HashAggregateExecutor : public Executor {
 public:
  /// Groups by `group_by` columns (possibly empty: one global group)
  /// and computes `aggregates` per group. Output schema: the group-by
  /// columns followed by one column per aggregate.
  HashAggregateExecutor(std::unique_ptr<Executor> child,
                        std::vector<size_t> group_by,
                        std::vector<AggSpec> aggregates, CostMeter* meter);

  Status Init() override;
  Result<bool> NextBatch(TupleBatch* out) override;
  const Schema& output_schema() const override { return schema_; }

 private:
  struct AggState {
    double sum = 0;
    uint64_t count = 0;
    std::optional<Value> min;
    std::optional<Value> max;
  };
  struct Group {
    Tuple keys;
    std::vector<AggState> states;
  };

  Value Finalize(const AggSpec& spec, const AggState& state) const;
  void Accumulate(const Tuple& t);
  std::optional<Tuple> EmitGroup();

  std::unique_ptr<Executor> child_;
  std::vector<size_t> group_by_;
  std::vector<AggSpec> aggregates_;
  CostMeter* meter_;
  Schema schema_;

  std::map<std::string, Group> groups_;  // key string -> group
  std::map<std::string, Group>::const_iterator out_it_;
  bool emitted_global_empty_ = false;
};

/// LIMIT n on top of any child.
///
/// Pulls its child through a 1-row batch, which is exact (DESIGN.md
/// §10): the child is charged for exactly the `limit` rows LIMIT takes,
/// whereas a larger child batch could over-produce (a scan finishes the
/// page it pinned). The output batch is filled to its own target.
class LimitExecutor : public Executor {
 public:
  LimitExecutor(std::unique_ptr<Executor> child, uint64_t limit)
      : child_(std::move(child)), limit_(limit) {}

  Status Init() override { return child_->Init(); }
  Result<bool> NextBatch(TupleBatch* out) override {
    out->Clear();
    while (out->size() < out->target_rows() && produced_ < limit_) {
      auto more = child_->NextBatch(&child_batch_);
      if (!more.ok()) return more.status();
      if (child_batch_.empty()) break;
      produced_++;
      out->PushRow(std::move(child_batch_[0]));
    }
    return exec_internal::FinishBatch(*out);
  }
  const Schema& output_schema() const override {
    return child_->output_schema();
  }

 private:
  std::unique_ptr<Executor> child_;
  uint64_t limit_;
  uint64_t produced_ = 0;
  TupleBatch child_batch_{1};
};

}  // namespace sqp
