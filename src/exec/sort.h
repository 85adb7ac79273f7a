// Sorting.
//
// SortExecutor implements an external-sort cost model: inputs larger
// than the configured sort memory charge the extra write+read passes a
// disk-based merge sort would perform.
#pragma once

#include <memory>
#include <vector>

#include "exec/executors.h"

namespace sqp {

struct SortKey {
  size_t column_index = 0;
  bool descending = false;
};

class SortExecutor : public Executor {
 public:
  SortExecutor(std::unique_ptr<Executor> child, std::vector<SortKey> keys,
               CostMeter* meter);

  Status Init() override;
  Result<bool> NextBatch(TupleBatch* out) override;
  const Schema& output_schema() const override {
    return child_->output_schema();
  }

  /// Did the sort exceed its memory budget (external merge passes)?
  bool spilled() const { return spilled_; }

 private:
  std::unique_ptr<Executor> child_;
  std::vector<SortKey> keys_;
  CostMeter* meter_;
  std::vector<Tuple> rows_;
  size_t pos_ = 0;
  bool spilled_ = false;
};

}  // namespace sqp
