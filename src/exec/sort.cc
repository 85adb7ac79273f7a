#include "exec/sort.h"

#include <algorithm>
#include <cmath>

namespace sqp {

// ------------------------------------------------------------------ Sort

SortExecutor::SortExecutor(std::unique_ptr<Executor> child,
                           std::vector<SortKey> keys, CostMeter* meter)
    : child_(std::move(child)), keys_(std::move(keys)), meter_(meter) {}

Status SortExecutor::Init() {
  SQP_RETURN_IF_ERROR(child_->Init());
  size_t bytes = 0;
  TupleBatch batch;
  for (;;) {
    auto more = child_->NextBatch(&batch);
    if (!more.ok()) return more.status();
    if (batch.empty()) break;
    meter_->ChargeTuples(batch.size());
    for (Tuple& row : batch) {
      bytes += SerializedTupleSize(row);
      rows_.push_back(std::move(row));
    }
  }
  std::stable_sort(rows_.begin(), rows_.end(),
                   [this](const Tuple& a, const Tuple& b) {
                     for (const SortKey& key : keys_) {
                       int c = a[key.column_index].Compare(
                           b[key.column_index]);
                       if (c != 0) return key.descending ? c > 0 : c < 0;
                     }
                     return false;
                   });
  // Sort CPU: ~n log2 n comparisons.
  if (rows_.size() > 1) {
    meter_->ChargeTuples(static_cast<uint64_t>(
        static_cast<double>(rows_.size()) *
        std::log2(static_cast<double>(rows_.size()))));
  }
  // External sort: every memory-sized run is written out and merged
  // back in — one extra write+read pass over the data per merge level.
  size_t budget_bytes =
      meter_->config().hash_join_memory_pages * kPageSize;
  if (bytes > budget_bytes && budget_bytes > 0) {
    spilled_ = true;
    uint64_t pages = static_cast<uint64_t>(bytes / kPageSize) + 1;
    double runs = std::ceil(static_cast<double>(bytes) / budget_bytes);
    // Merge fan-in ~ budget pages; one pass suffices until runs exceed
    // it (never at our scales), so charge a single spill pass scaled by
    // the (tiny) chance of more.
    uint64_t passes = std::max<uint64_t>(
        1, static_cast<uint64_t>(
               std::ceil(std::log(runs) /
                         std::log(std::max(2.0, static_cast<double>(
                                                    budget_bytes /
                                                    kPageSize))))));
    meter_->ChargeBlockWrite(pages * passes);
    meter_->ChargeBlockRead(pages * passes);
  }
  pos_ = 0;
  return Status::OK();
}

Result<bool> SortExecutor::NextBatch(TupleBatch* out) {
  out->Clear();
  size_t n = std::min(out->target_rows(), rows_.size() - pos_);
  if (n > 0) {
    meter_->ChargeTuples(n);
    for (size_t i = 0; i < n; i++) {
      out->PushRow(std::move(rows_[pos_ + i]));
    }
    pos_ += n;
  }
  return exec_internal::FinishBatch(*out);
}

}  // namespace sqp
