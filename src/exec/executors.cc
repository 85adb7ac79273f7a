#include "exec/executors.h"

#include <iterator>
#include <utility>

namespace sqp {

namespace {

// EvalConjunction against the serialized record instead of a decoded
// tuple. DecodeColumn yields exactly the Value DeserializeTuple would,
// and the comparison is the same Value::Compare, so the verdict is
// bit-identical to evaluating the decoded row.
bool EvalConjunctionOnRecord(const std::vector<BoundSelection>& preds,
                             const uint8_t* rec) {
  for (const BoundSelection& p : preds) {
    Value v = DecodeColumn(rec, p.column_index);
    if (!EvalCompare(v.CompareInline(p.constant), p.op)) return false;
    // Fused BETWEEN upper bound: the column is already decoded, so the
    // second comparison costs one compare, not a second record walk.
    if (p.has_upper && !EvalCompare(v.CompareInline(p.upper), p.upper_op)) {
      return false;
    }
  }
  return true;
}

}  // namespace

// ---------------------------------------------------------------- SeqScan

SeqScanExecutor::SeqScanExecutor(const TableInfo* table, BufferPool* pool,
                                 CostMeter* meter,
                                 std::vector<BoundSelection> predicates)
    : table_(table),
      pool_(pool),
      meter_(meter),
      predicates_(std::move(predicates)) {}

Status SeqScanExecutor::Init() {
  page_index_ = 0;
  slot_ = 0;
  guard_.Release();
  page_loaded_ = false;
  return Status::OK();
}

Result<bool> SeqScanExecutor::LoadCurrentPage() {
  if (page_index_ >= table_->heap->pages().size()) return false;
  if (!page_loaded_) {
    page_id_t page_id = table_->heap->pages()[page_index_];
    auto page = pool_->FetchPage(page_id);
    if (!page.ok()) return page.status();
    guard_ = PageGuard(pool_, page_id, *page);
    page_loaded_ = true;
    slot_ = 0;
    exec_internal::NotePagePinned();
  }
  return true;
}

Result<bool> SeqScanExecutor::NextBatch(TupleBatch* out) {
  out->Clear();
  const bool exact = out->target_rows() == 1;
  while (out->size() < out->target_rows()) {
    auto loaded = LoadCurrentPage();
    if (!loaded.ok()) return loaded.status();
    if (!*loaded) break;
    const Page* page = guard_.get();
    const uint16_t nslots = page->slot_count();
    uint16_t slot = slot_;
    // Late materialization: evaluate the predicates against the
    // serialized record and decode only the survivors, into recycled
    // batch slots (allocation-free once the batch's pool is warm).
    while (slot < nslots) {
      uint16_t len = 0;
      const uint8_t* rec = page->Record(slot++, &len);
      if (!predicates_.empty() &&
          !EvalConjunctionOnRecord(predicates_, rec)) {
        continue;
      }
      DeserializeTupleInto(rec, len, &out->AppendSlot());
      if (exact) break;
    }
    // Every examined slot flows through the scan: one bulk CPU charge.
    meter_->ChargeTuples(slot - slot_);
    slot_ = slot;
    // An exact batch keeps the page pinned and resumes mid-page. Larger
    // batches finish every page they pin: releasing at a page end keeps
    // the pool's LRU order independent of the batch size.
    if (exact && !out->empty()) break;
    guard_.Release();
    page_loaded_ = false;
    page_index_++;
  }
  return exec_internal::FinishBatch(*out);
}

// -------------------------------------------------------------- IndexScan

IndexScanExecutor::IndexScanExecutor(const TableInfo* table,
                                     const BPlusTree* index, KeyRange range,
                                     BufferPool* pool, CostMeter* meter,
                                     std::vector<BoundSelection> residual)
    : table_(table),
      index_(index),
      range_(std::move(range)),
      pool_(pool),
      meter_(meter),
      residual_(std::move(residual)) {}

Status IndexScanExecutor::Init() {
  IndexScanStats stats;
  rids_ = index_->RangeScan(range_, &stats);
  // The memory-resident tree stands in for an on-disk B+-tree: charge
  // one block per level descended plus one per leaf touched.
  meter_->ChargeBlockRead(stats.height + stats.leaves_touched);
  pos_ = 0;
  return Status::OK();
}

Result<bool> IndexScanExecutor::NextBatch(TupleBatch* out) {
  out->Clear();
  // Heap fetches stay rid-by-rid (each may touch a different page, and
  // the fetch order is what chaos schedules key on), but the batch
  // amortizes the virtual dispatch above them.
  while (out->size() < out->target_rows() && pos_ < rids_.size()) {
    auto row = table_->heap->Fetch(rids_[pos_++]);
    if (!row.ok()) return row.status();
    meter_->ChargeTuples();
    if (EvalConjunction(residual_, *row)) {
      out->PushRow(std::move(*row));
    }
  }
  return exec_internal::FinishBatch(*out);
}

// --------------------------------------------------------------- HashJoin

HashJoinExecutor::HashJoinExecutor(std::unique_ptr<Executor> build,
                                   std::unique_ptr<Executor> probe,
                                   size_t build_key, size_t probe_key,
                                   CostMeter* meter, size_t build_rows_hint)
    : build_(std::move(build)),
      probe_(std::move(probe)),
      build_key_(build_key),
      probe_key_(probe_key),
      meter_(meter),
      build_rows_hint_(build_rows_hint) {
  schema_ = build_->output_schema().Concat(probe_->output_schema());
}

Status HashJoinExecutor::Init() {
  SQP_RETURN_IF_ERROR(build_->Init());
  SQP_RETURN_IF_ERROR(probe_->Init());
  size_t build_bytes = 0;
  if (build_rows_hint_ > 0) {
    build_rows_.reserve(build_rows_hint_);
  }
  TupleBatch batch;
  for (;;) {
    auto more = build_->NextBatch(&batch);
    if (!more.ok()) return more.status();
    if (batch.empty()) break;
    meter_->ChargeTuples(batch.size());
    for (Tuple& row : batch) {
      build_bytes += SerializedTupleSize(row);
      build_rows_.push_back(std::move(row));
    }
  }
  // Build the flat table in one pass now that the row count is known:
  // power-of-two buckets at ~2x occupancy headroom. Inserting in
  // reverse makes each chain run in insertion order, so matches emit
  // in the same order the per-bucket vectors used to.
  if (!build_rows_.empty()) {
    size_t buckets = 1;
    while (buckets < build_rows_.size() * 2) buckets <<= 1;
    bucket_mask_ = buckets - 1;
    heads_.assign(buckets, -1);
    next_.resize(build_rows_.size());
    for (size_t i = build_rows_.size(); i-- > 0;) {
      size_t b = build_rows_[i][build_key_].HashInline() & bucket_mask_;
      next_[i] = heads_[b];
      heads_[b] = static_cast<int32_t>(i);
    }
  }
  // Grace spill: build side over budget means both inputs take an extra
  // partition-write + re-read pass. The build side is charged here; the
  // probe side is charged row by row as it streams (in NextBatch).
  spilled_ = build_bytes >
             meter_->config().hash_join_memory_pages * kPageSize;
  if (spilled_) {
    uint64_t build_pages =
        static_cast<uint64_t>(build_bytes / kPageSize) + 1;
    meter_->ChargeBlockWrite(build_pages);
    meter_->ChargeBlockRead(build_pages);
  }
  return Status::OK();
}

void HashJoinExecutor::ChargeProbeRow(const Tuple& row) {
  meter_->ChargeTuples();
  if (spilled_) {
    probe_spill_bytes_ += SerializedTupleSize(row);
    while (probe_spill_bytes_ >= kPageSize) {
      meter_->ChargeBlockWrite();
      meter_->ChargeBlockRead();
      probe_spill_bytes_ -= kPageSize;
    }
  }
}

Result<bool> HashJoinExecutor::NextBatch(TupleBatch* out) {
  out->Clear();
  const bool exact = out->target_rows() == 1;
  while (out->size() < out->target_rows()) {
    int32_t idx = match_cursor_;
    if (idx < 0) {
      // Start the next probe row.
      if (probe_pos_ >= probe_batch_.size()) {
        probe_batch_.set_target_rows(out->target_rows());
        auto more = probe_->NextBatch(&probe_batch_);
        if (!more.ok()) return more.status();
        if (probe_batch_.empty()) break;
        probe_pos_ = 0;
        if (!spilled_) {
          // One bulk CPU charge for the pulled rows: every one of them
          // is consumed before the next fault opportunity (the probe
          // child's next page fetch), so totals agree with per-row
          // charging at every abort point.
          meter_->ChargeTuples(probe_batch_.size());
        }
      }
      const Tuple& probe = probe_batch_[probe_pos_++];
      if (spilled_) ChargeProbeRow(probe);  // per-row spill-byte stream
      idx = BucketHead(probe[probe_key_]);
    } else {
      match_cursor_ = -1;  // resume the row an exact batch stopped in
    }
    // Emit the probe row's matches: all of them (a batch may overshoot
    // its soft target), or one for an exact batch, which then leaves
    // match_cursor_ at the rest of the chain.
    const Tuple& probe = probe_batch_[probe_pos_ - 1];
    for (; idx >= 0; idx = next_[idx]) {
      const Tuple& build_row = build_rows_[idx];
      if (build_row[build_key_].CompareInline(probe[probe_key_]) != 0) {
        continue;  // bucket shared by a different key
      }
      meter_->ChargeTuples();
      // Concat into a recycled slot: a recycled slot of the right width
      // is overwritten in place, without a per-output-row malloc.
      exec_internal::ConcatInto(out->AppendSlot(), build_row, probe);
      if (exact) {
        match_cursor_ = next_[idx];
        break;
      }
    }
  }
  return exec_internal::FinishBatch(*out);
}

// --------------------------------------------------------- NestedLoopJoin

NestedLoopJoinExecutor::NestedLoopJoinExecutor(
    std::unique_ptr<Executor> outer, std::unique_ptr<Executor> inner,
    std::vector<JoinCondition> conditions, CostMeter* meter)
    : outer_(std::move(outer)),
      inner_(std::move(inner)),
      conditions_(std::move(conditions)),
      meter_(meter) {
  schema_ = outer_->output_schema().Concat(inner_->output_schema());
}

Status NestedLoopJoinExecutor::Init() {
  SQP_RETURN_IF_ERROR(outer_->Init());
  SQP_RETURN_IF_ERROR(inner_->Init());
  TupleBatch batch;
  for (;;) {
    auto more = inner_->NextBatch(&batch);
    if (!more.ok()) return more.status();
    if (batch.empty()) break;
    meter_->ChargeTuples(batch.size());
    inner_rows_.insert(inner_rows_.end(),
                       std::make_move_iterator(batch.begin()),
                       std::make_move_iterator(batch.end()));
  }
  inner_pos_ = inner_rows_.size();  // no current outer row yet
  return Status::OK();
}

bool NestedLoopJoinExecutor::MatchesConditions(const Tuple& outer_row,
                                               const Tuple& inner_row) const {
  for (const auto& c : conditions_) {
    int cmp = outer_row[c.left_index].Compare(
        inner_row[c.right_index - outer_row.size()]);
    if (!EvalCompare(cmp, c.op)) return false;
  }
  return true;
}

Result<bool> NestedLoopJoinExecutor::NextBatch(TupleBatch* out) {
  out->Clear();
  const bool exact = out->target_rows() == 1;
  while (out->size() < out->target_rows()) {
    if (inner_pos_ >= inner_rows_.size()) {
      // The current outer row is finished: move to the next one.
      if (outer_pos_ >= outer_batch_.size()) {
        outer_batch_.set_target_rows(out->target_rows());
        auto more = outer_->NextBatch(&outer_batch_);
        if (!more.ok()) return more.status();
        if (outer_batch_.empty()) break;
        outer_pos_ = 0;
      }
      outer_pos_++;
      inner_pos_ = 0;
      meter_->ChargeTuples();
    }
    // Examine inner rows against the current outer row: all of them, or
    // up to the first match for an exact batch, which resumes at
    // inner_pos_ on the next call. Each examined inner row costs 1.
    const Tuple& outer_row = outer_batch_[outer_pos_ - 1];
    const size_t first = inner_pos_;
    while (inner_pos_ < inner_rows_.size()) {
      const Tuple& inner_row = inner_rows_[inner_pos_++];
      if (MatchesConditions(outer_row, inner_row)) {
        exec_internal::ConcatInto(out->AppendSlot(), outer_row, inner_row);
        if (exact) break;
      }
    }
    meter_->ChargeTuples(inner_pos_ - first);
  }
  return exec_internal::FinishBatch(*out);
}

// ----------------------------------------------------------- ColumnFilter

ColumnFilterExecutor::ColumnFilterExecutor(std::unique_ptr<Executor> child,
                                           std::vector<Condition> conditions,
                                           CostMeter* meter)
    : child_(std::move(child)),
      conditions_(std::move(conditions)),
      meter_(meter) {}

Status ColumnFilterExecutor::Init() { return child_->Init(); }

bool ColumnFilterExecutor::Passes(const Tuple& row) const {
  for (const auto& c : conditions_) {
    int cmp = row[c.left_index].Compare(row[c.right_index]);
    if (!EvalCompare(cmp, c.op)) return false;
  }
  return true;
}

Result<bool> ColumnFilterExecutor::NextBatch(TupleBatch* out) {
  out->Clear();
  child_batch_.set_target_rows(out->target_rows());
  while (out->size() < out->target_rows()) {
    auto more = child_->NextBatch(&child_batch_);
    if (!more.ok()) return more.status();
    if (child_batch_.empty()) break;
    meter_->ChargeTuples(child_batch_.size());
    for (Tuple& row : child_batch_) {
      if (Passes(row)) out->PushRow(std::move(row));
    }
  }
  return exec_internal::FinishBatch(*out);
}

// ------------------------------------------------------------------ Drain

Result<std::vector<Tuple>> DrainExecutor(Executor* exec, size_t batch_size) {
  SQP_RETURN_IF_ERROR(exec->Init());
  std::vector<Tuple> out;
  TupleBatch batch(batch_size);
  for (;;) {
    auto more = exec->NextBatch(&batch);
    if (!more.ok()) return more.status();
    if (batch.empty()) return out;
    // insert() grows geometrically, so the drain stays amortized O(n)
    // without knowing the result size up front.
    out.insert(out.end(), std::make_move_iterator(batch.begin()),
               std::make_move_iterator(batch.end()));
  }
}

}  // namespace sqp
