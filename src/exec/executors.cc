#include "exec/executors.h"

#include <cstring>
#include <iterator>
#include <utility>

namespace sqp {

namespace {

// Decode only column `col` from a serialized record (storage/tuple.cc
// layout: arity byte, then per column a type tag plus an 8-byte numeric
// or a u32-length string). Fixed-width columns are skipped with pointer
// arithmetic, so evaluating a predicate needs no full-row decode.
Value DecodeColumn(const uint8_t* rec, size_t col) {
  size_t off = 1;  // arity byte
  for (size_t i = 0; i < col; i++) {
    TypeId type = static_cast<TypeId>(rec[off++]);
    if (type == TypeId::kString) {
      uint32_t slen;
      std::memcpy(&slen, rec + off, sizeof(slen));
      off += sizeof(slen) + slen;
    } else {
      off += 8;
    }
  }
  TypeId type = static_cast<TypeId>(rec[off++]);
  switch (type) {
    case TypeId::kInt64: {
      int64_t v;
      std::memcpy(&v, rec + off, sizeof(v));
      return Value(v);
    }
    case TypeId::kDouble: {
      double v;
      std::memcpy(&v, rec + off, sizeof(v));
      return Value(v);
    }
    case TypeId::kString:
    default: {
      uint32_t slen;
      std::memcpy(&slen, rec + off, sizeof(slen));
      return Value(std::string_view(
          reinterpret_cast<const char*>(rec + off + sizeof(slen)), slen));
    }
  }
}

// EvalConjunction against the serialized record instead of a decoded
// tuple. DecodeColumn yields exactly the Value DeserializeTuple would,
// and the comparison is the same Value::Compare, so the verdict is
// bit-identical to the tuple path's.
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

// ----------------------------------------------------- Executor (adapter)

// Default batch shim: loop Next(). Kept as the fallback for executors
// with no native batch loop (every shipped executor now overrides
// NextBatch; LIMIT's override still pulls its child tuple-at-a-time,
// which is what guarantees the child is charged for exactly `limit`
// rows, same as the tuple engine).
Result<bool> Executor::NextBatch(TupleBatch* out) {
  out->Clear();
  while (out->size() < out->target_rows()) {
    auto row = Next();
    if (!row.ok()) return row.status();
    if (!row->has_value()) break;
    out->PushRow(std::move(**row));
  }
  return exec_internal::FinishBatch(*out);
}

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

Result<std::optional<Tuple>> SeqScanExecutor::Next() {
  for (;;) {
    auto loaded = LoadCurrentPage();
    if (!loaded.ok()) return loaded.status();
    if (!*loaded) return std::optional<Tuple>();
    const Page* page = guard_.get();
    while (slot_ < page->slot_count()) {
      uint16_t len = 0;
      const uint8_t* rec = page->Record(slot_, &len);
      slot_++;
      meter_->ChargeTuples();
      Tuple row = DeserializeTuple(rec, len);
      if (EvalConjunction(predicates_, row)) {
        return std::optional<Tuple>(std::move(row));
      }
    }
    guard_.Release();
    page_loaded_ = false;
    page_index_++;
  }
}

Result<bool> SeqScanExecutor::NextBatch(TupleBatch* out) {
  out->Clear();
  while (out->size() < out->target_rows()) {
    auto loaded = LoadCurrentPage();
    if (!loaded.ok()) return loaded.status();
    if (!*loaded) break;
    const Page* page = guard_.get();
    uint16_t nslots = page->slot_count();
    if (slot_ < nslots) {
      // Every slot on the page flows through the scan: one bulk CPU
      // charge equals the tuple path's per-row charges.
      meter_->ChargeTuples(nslots - slot_);
      // Late materialization: evaluate the predicates against the
      // serialized record and decode only the survivors, into recycled
      // batch slots (allocation-free once the batch's pool is warm).
      for (; slot_ < nslots; slot_++) {
        uint16_t len = 0;
        const uint8_t* rec = page->Record(slot_, &len);
        if (!predicates_.empty() &&
            !EvalConjunctionOnRecord(predicates_, rec)) {
          continue;
        }
        DeserializeTupleInto(rec, len, &out->AppendSlot());
      }
    }
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

Result<std::optional<Tuple>> IndexScanExecutor::Next() {
  while (pos_ < rids_.size()) {
    auto row = table_->heap->Fetch(rids_[pos_++]);
    if (!row.ok()) return row.status();
    meter_->ChargeTuples();
    if (EvalConjunction(residual_, *row)) {
      return std::optional<Tuple>(std::move(*row));
    }
  }
  return std::optional<Tuple>();
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

// ----------------------------------------------------------------- Filter

FilterExecutor::FilterExecutor(std::unique_ptr<Executor> child,
                               std::vector<BoundSelection> predicates,
                               CostMeter* meter)
    : child_(std::move(child)),
      predicates_(std::move(predicates)),
      meter_(meter) {}

Status FilterExecutor::Init() { return child_->Init(); }

Result<std::optional<Tuple>> FilterExecutor::Next() {
  for (;;) {
    auto row = child_->Next();
    if (!row.ok()) return row.status();
    if (!row->has_value()) return std::optional<Tuple>();
    meter_->ChargeTuples();
    if (EvalConjunction(predicates_, **row)) return std::move(*row);
  }
}

Result<bool> FilterExecutor::NextBatch(TupleBatch* out) {
  out->Clear();
  child_batch_.set_target_rows(out->target_rows());
  while (out->size() < out->target_rows()) {
    auto more = child_->NextBatch(&child_batch_);
    if (!more.ok()) return more.status();
    if (child_batch_.empty()) break;
    meter_->ChargeTuples(child_batch_.size());
    EvalConjunctionBatch(predicates_, child_batch_.begin(),
                         child_batch_.size(), &selection_);
    for (uint32_t idx : selection_) {
      out->PushRow(std::move(child_batch_[idx]));
    }
  }
  return exec_internal::FinishBatch(*out);
}

// ---------------------------------------------------------------- Project

ProjectExecutor::ProjectExecutor(std::unique_ptr<Executor> child,
                                 std::vector<size_t> column_indices,
                                 CostMeter* meter)
    : child_(std::move(child)),
      indices_(std::move(column_indices)),
      meter_(meter) {
  std::vector<Column> cols;
  cols.reserve(indices_.size());
  for (size_t idx : indices_) {
    cols.push_back(child_->output_schema().column(idx));
  }
  schema_ = Schema(std::move(cols));
}

Status ProjectExecutor::Init() { return child_->Init(); }

Result<std::optional<Tuple>> ProjectExecutor::Next() {
  auto row = child_->Next();
  if (!row.ok()) return row.status();
  if (!row->has_value()) return std::optional<Tuple>();
  meter_->ChargeTuples();
  Tuple out;
  out.reserve(indices_.size());
  for (size_t idx : indices_) out.push_back(std::move((**row)[idx]));
  return std::optional<Tuple>(std::move(out));
}

Result<bool> ProjectExecutor::NextBatch(TupleBatch* out) {
  out->Clear();
  child_batch_.set_target_rows(out->target_rows());
  while (out->size() < out->target_rows()) {
    auto more = child_->NextBatch(&child_batch_);
    if (!more.ok()) return more.status();
    if (child_batch_.empty()) break;
    meter_->ChargeTuples(child_batch_.size());
    for (Tuple& row : child_batch_) {
      Tuple& projected = out->AppendSlot();
      projected.clear();  // recycled slots may hold stale values
      projected.reserve(indices_.size());
      for (size_t idx : indices_) projected.push_back(std::move(row[idx]));
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
  // probe side is charged page by page as it streams (in Next).
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

Tuple HashJoinExecutor::ConcatRows(const Tuple& build_row,
                                   const Tuple& probe_row) {
  Tuple out;
  out.reserve(build_row.size() + probe_row.size());
  out.insert(out.end(), build_row.begin(), build_row.end());
  out.insert(out.end(), probe_row.begin(), probe_row.end());
  return out;
}

Result<std::optional<Tuple>> HashJoinExecutor::Next() {
  for (;;) {
    // Emit pending matches for the current probe tuple.
    if (probe_tuple_.has_value()) {
      while (match_cursor_ >= 0) {
        const Tuple& build_row = build_rows_[match_cursor_];
        match_cursor_ = next_[match_cursor_];
        if (build_row[build_key_].Compare((*probe_tuple_)[probe_key_]) != 0) {
          continue;  // bucket shared by a different key
        }
        meter_->ChargeTuples();
        return std::optional<Tuple>(ConcatRows(build_row, *probe_tuple_));
      }
    }
    auto row = probe_->Next();
    if (!row.ok()) return row.status();
    if (!row->has_value()) return std::optional<Tuple>();
    ChargeProbeRow(**row);
    probe_tuple_ = std::move(*row);
    match_cursor_ = BucketHead((*probe_tuple_)[probe_key_]);
  }
}

Result<bool> HashJoinExecutor::NextBatch(TupleBatch* out) {
  out->Clear();
  while (out->size() < out->target_rows()) {
    if (probe_pos_ >= probe_batch_.size()) {
      probe_batch_.set_target_rows(out->target_rows());
      auto more = probe_->NextBatch(&probe_batch_);
      if (!more.ok()) return more.status();
      if (probe_batch_.empty()) break;
      probe_pos_ = 0;
      if (!spilled_) {
        // One bulk CPU charge for the pulled rows: the tuple path
        // charges the same rows one by one before the next fault
        // opportunity (a page fetch), so totals agree at every
        // abort point too.
        meter_->ChargeTuples(probe_batch_.size());
      }
    }
    // A probe row's matches are flushed in full (batches may overshoot
    // their soft target), so no partial-match cursor is needed here.
    const Tuple& probe = probe_batch_[probe_pos_++];
    if (spilled_) ChargeProbeRow(probe);  // per-row spill-byte stream
    for (int32_t idx = BucketHead(probe[probe_key_]); idx >= 0;
         idx = next_[idx]) {
      const Tuple& build_row = build_rows_[idx];
      if (build_row[build_key_].CompareInline(probe[probe_key_]) != 0) {
        continue;  // bucket shared by a different key
      }
      meter_->ChargeTuples();
      // Concat into a recycled slot: the per-output-row malloc is the
      // dominant cost of the tuple path's ConcatRows. A recycled slot
      // of the right width is overwritten in place.
      exec_internal::ConcatInto(out->AppendSlot(), build_row, probe);
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

Result<std::optional<Tuple>> NestedLoopJoinExecutor::Next() {
  for (;;) {
    if (!outer_tuple_.has_value()) {
      auto row = outer_->Next();
      if (!row.ok()) return row.status();
      if (!row->has_value()) return std::optional<Tuple>();
      meter_->ChargeTuples();
      outer_tuple_ = std::move(*row);
      inner_pos_ = 0;
    }
    while (inner_pos_ < inner_rows_.size()) {
      const Tuple& inner_row = inner_rows_[inner_pos_++];
      meter_->ChargeTuples();
      if (MatchesConditions(*outer_tuple_, inner_row)) {
        Tuple out = *outer_tuple_;
        out.insert(out.end(), inner_row.begin(), inner_row.end());
        return std::optional<Tuple>(std::move(out));
      }
    }
    outer_tuple_.reset();
  }
}

Result<bool> NestedLoopJoinExecutor::NextBatch(TupleBatch* out) {
  out->Clear();
  while (out->size() < out->target_rows()) {
    if (outer_pos_ >= outer_batch_.size()) {
      outer_batch_.set_target_rows(out->target_rows());
      auto more = outer_->NextBatch(&outer_batch_);
      if (!more.ok()) return more.status();
      if (outer_batch_.empty()) break;
      outer_pos_ = 0;
    }
    // Each outer row runs the full inner loop before the next one, so
    // the examined-tuple charge total matches the tuple path.
    const Tuple& outer_row = outer_batch_[outer_pos_++];
    meter_->ChargeTuples();
    meter_->ChargeTuples(inner_rows_.size());
    for (const Tuple& inner_row : inner_rows_) {
      if (MatchesConditions(outer_row, inner_row)) {
        exec_internal::ConcatInto(out->AppendSlot(), outer_row, inner_row);
      }
    }
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

Result<std::optional<Tuple>> ColumnFilterExecutor::Next() {
  for (;;) {
    auto row = child_->Next();
    if (!row.ok()) return row.status();
    if (!row->has_value()) return std::optional<Tuple>();
    meter_->ChargeTuples();
    if (Passes(**row)) return std::move(*row);
  }
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
