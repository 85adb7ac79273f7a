// Batches of tuples flowing between executors (DESIGN.md §10).
//
// The execution engine is batch-at-a-time: Executor::NextBatch fills a
// TupleBatch with ~1k rows per virtual call, so the virtual dispatch,
// the status round trip and the loop overhead are paid per batch, not
// per row. Simulated CostMeter charges are per tuple and per page: a
// full drain charges the same at every batch size, and a 1-row batch
// charges exactly the work of the row it returns.
#pragma once

#include <cstddef>
#include <vector>

#include "storage/tuple.h"

namespace sqp {

/// Default row target of one batch. Large enough to amortize the
/// per-batch virtual call to noise, small enough that a batch of wide
/// rows stays cache-resident.
inline constexpr size_t kDefaultExecBatchSize = 1024;

/// A resizable batch of rows produced by Executor::NextBatch.
/// `target_rows` is a *soft* capacity: producers aim for it but may
/// overshoot by bounded amounts (a page-at-a-time scan always finishes
/// the page it pinned), and a batch is smaller than the target only at
/// end of stream. A target of 1 is exact: producers return one row and
/// stop there, mid-page or mid-match.
class TupleBatch {
 public:
  explicit TupleBatch(size_t target_rows = kDefaultExecBatchSize)
      : target_rows_(target_rows == 0 ? 1 : target_rows) {
    rows_.reserve(target_rows_);
  }

  size_t size() const { return live_; }
  bool empty() const { return live_ == 0; }
  const Tuple& operator[](size_t i) const { return rows_[i]; }
  Tuple& operator[](size_t i) { return rows_[i]; }

  /// Iteration covers the live rows only.
  Tuple* begin() { return rows_.data(); }
  Tuple* end() { return rows_.data() + live_; }
  const Tuple* begin() const { return rows_.data(); }
  const Tuple* end() const { return rows_.data() + live_; }

  size_t target_rows() const { return target_rows_; }
  void set_target_rows(size_t target) {
    target_rows_ = target == 0 ? 1 : target;
  }

  /// Append a row slot and return it for the producer to fill. The
  /// slot may still HOLD a recycled row's stale values — the caller
  /// must overwrite every element (in place, via Value::AssignFrom /
  /// Set, which reuse element storage) or clear() it first. In steady
  /// state a producer that fills batches through AppendSlot allocates
  /// only for rows the consumer actually keeps (moves out of the
  /// batch) — rows that are merely read, or filtered out upstream,
  /// cycle their storage forever.
  Tuple& AppendSlot() {
    if (live_ == rows_.size()) rows_.emplace_back();
    return rows_[live_++];
  }

  /// Append an already-built row. Producers whose rows originate
  /// elsewhere (operators moving child rows through) use this; hot
  /// kernels prefer AppendSlot + in-place fill.
  void PushRow(Tuple&& row) { AppendSlot() = std::move(row); }

  /// Empty the batch. O(1): rows beyond the live count stay behind as
  /// carcasses whose heap storage the next fill round reuses in place.
  void Clear() { live_ = 0; }

 private:
  size_t target_rows_;
  size_t live_ = 0;
  // rows_[0..live_) are the batch's rows; rows_[live_..) are recycled
  // carcasses retained for storage reuse (bounded by the largest batch
  // this instance ever held).
  std::vector<Tuple> rows_;
};

namespace exec_internal {

/// Overwrite `dst` with `left ++ right` (join output kernel). A dst of
/// the right width — a recycled AppendSlot from the same join — is
/// assigned element-wise in place; otherwise it is rebuilt with one
/// reserve. Either way numerics and short strings are plain copies.
inline void ConcatInto(Tuple& dst, const Tuple& left, const Tuple& right) {
  const size_t total = left.size() + right.size();
  if (dst.size() == total) {
    size_t i = 0;
    for (const Value& v : left) dst[i++].AssignFrom(v);
    for (const Value& v : right) dst[i++].AssignFrom(v);
  } else {
    dst.clear();
    dst.reserve(total);
    dst.insert(dst.end(), left.begin(), left.end());
    dst.insert(dst.end(), right.begin(), right.end());
  }
}

/// Record one produced batch in the `exec.batch.*` registry metrics
/// (batches produced, rows, running average fill vs. target) and return
/// the standard NextBatch result: false exactly at end of stream (empty
/// batch). Every native NextBatch implementation ends with
/// `return FinishBatch(*out);`.
bool FinishBatch(const TupleBatch& out);

/// Count one page pinned by a page-at-a-time scan
/// (`exec.batch.pages_pinned`).
void NotePagePinned();

}  // namespace exec_internal

}  // namespace sqp
