// Batch-at-a-time executors.
//
// Every executor charges CPU work per tuple it processes through the
// shared CostMeter; page traffic charges I/O inside the buffer pool.
// Together these produce the simulated execution times the experiments
// bucket queries by.
//
// Execution model (DESIGN.md §10): the one row interface is
// NextBatch(), which moves ~kDefaultExecBatchSize rows per virtual
// call. A 1-row batch is exact: it returns one row (or none at end of
// stream) and charges only the work that row took, so LIMIT can stop
// its child after exactly `limit` rows. Larger batches are soft: a
// producer may finish the page or probe row it is working on.
#pragma once

#include <memory>
#include <vector>

#include "catalog/catalog.h"
#include "common/cost_meter.h"
#include "common/status.h"
#include "exec/expression.h"
#include "exec/tuple_batch.h"
#include "index/bplus_tree.h"

namespace sqp {

class Executor {
 public:
  virtual ~Executor() = default;

  /// Prepare for iteration. Must be called exactly once before
  /// NextBatch().
  virtual Status Init() = 0;

  /// Fill `out` (cleared first) with ~out->target_rows() tuples and
  /// return false exactly at end of stream (empty batch). A target of
  /// 1 is exact: one row, charged as that row alone. Above 1 the target
  /// is soft: a scan finishes the page it pinned and a join the probe
  /// row it is matching.
  virtual Result<bool> NextBatch(TupleBatch* out) = 0;

  virtual const Schema& output_schema() const = 0;
};

/// Full scan of a heap file, with optional pushed-down predicates.
///
/// Page-at-a-time: one buffer-pool pin per page serves every tuple on
/// it. NextBatch late-materializes: it evaluates the pushed-down
/// predicates directly against each slot's serialized bytes (skipping
/// columns is a few adds) and fully decodes only surviving rows, into
/// recycled batch slots. A 1-row batch stops after the first surviving
/// slot and resumes there, mid-page, with the pin still held.
class SeqScanExecutor : public Executor {
 public:
  SeqScanExecutor(const TableInfo* table, BufferPool* pool, CostMeter* meter,
                  std::vector<BoundSelection> predicates = {});

  Status Init() override;
  Result<bool> NextBatch(TupleBatch* out) override;
  const Schema& output_schema() const override { return table_->schema; }

 private:
  /// Pin the page under the cursor if not already pinned. Returns false
  /// (without error) when the scan is past the last page.
  Result<bool> LoadCurrentPage();

  const TableInfo* table_;
  BufferPool* pool_;
  CostMeter* meter_;
  std::vector<BoundSelection> predicates_;

  // Page cursor: pin once per page, walk its slots, release.
  size_t page_index_ = 0;
  uint16_t slot_ = 0;
  PageGuard guard_;
  bool page_loaded_ = false;
};

/// Index range scan + heap fetches, with residual predicates.
/// Charges the B+-tree's height + leaf touches as simulated I/O (the
/// tree is memory-resident; see index/bplus_tree.h).
class IndexScanExecutor : public Executor {
 public:
  IndexScanExecutor(const TableInfo* table, const BPlusTree* index,
                    KeyRange range, BufferPool* pool, CostMeter* meter,
                    std::vector<BoundSelection> residual = {});

  Status Init() override;
  Result<bool> NextBatch(TupleBatch* out) override;
  const Schema& output_schema() const override { return table_->schema; }

 private:
  const TableInfo* table_;
  const BPlusTree* index_;
  KeyRange range_;
  BufferPool* pool_;
  CostMeter* meter_;
  std::vector<BoundSelection> residual_;
  std::vector<Rid> rids_;
  size_t pos_ = 0;
};

/// Filter on top of any child.
class FilterExecutor : public Executor {
 public:
  FilterExecutor(std::unique_ptr<Executor> child,
                 std::vector<BoundSelection> predicates, CostMeter* meter);

  Status Init() override;
  Result<bool> NextBatch(TupleBatch* out) override;
  const Schema& output_schema() const override {
    return child_->output_schema();
  }

 private:
  std::unique_ptr<Executor> child_;
  std::vector<BoundSelection> predicates_;
  CostMeter* meter_;
  TupleBatch child_batch_;
  std::vector<uint32_t> selection_;
};

/// Column projection.
class ProjectExecutor : public Executor {
 public:
  ProjectExecutor(std::unique_ptr<Executor> child,
                  std::vector<size_t> column_indices, CostMeter* meter);

  Status Init() override;
  Result<bool> NextBatch(TupleBatch* out) override;
  const Schema& output_schema() const override { return schema_; }

 private:
  std::unique_ptr<Executor> child_;
  std::vector<size_t> indices_;
  CostMeter* meter_;
  Schema schema_;
  TupleBatch child_batch_;
};

/// Hash equijoin; builds on the left child, probes with the right.
/// Output schema = left ++ right.
///
/// The build side is one contiguous row vector (reserved up front from
/// the planner's cardinality estimate) indexed by a flat chained hash
/// table: `heads_[bucket]` holds the first row ordinal and `next_`
/// links rows of the same bucket in insertion order. A probe is one
/// array load plus a chain walk over rows it must compare anyway —
/// no node allocations or per-bucket vectors.
///
/// Memory-bounded (Grace) behaviour: when the build side outgrows the
/// configured hash_join_memory_pages, the join charges one extra
/// write+read pass over both inputs (the partitioning spill), as a
/// 2003-era system with a small hash area would.
class HashJoinExecutor : public Executor {
 public:
  /// `build_rows_hint` pre-reserves the build vector (0 = no hint);
  /// the planner passes its build-side cardinality estimate.
  HashJoinExecutor(std::unique_ptr<Executor> build,
                   std::unique_ptr<Executor> probe, size_t build_key,
                   size_t probe_key, CostMeter* meter,
                   size_t build_rows_hint = 0);
  bool spilled() const { return spilled_; }

  Status Init() override;
  Result<bool> NextBatch(TupleBatch* out) override;
  const Schema& output_schema() const override { return schema_; }

 private:
  /// Charge one probe-side row (CPU + streaming spill I/O when the
  /// build side spilled).
  void ChargeProbeRow(const Tuple& row);

  std::unique_ptr<Executor> build_;
  std::unique_ptr<Executor> probe_;
  size_t build_key_;
  size_t probe_key_;
  CostMeter* meter_;
  size_t build_rows_hint_;
  Schema schema_;

  /// First build-row ordinal of the probe key's bucket, or -1.
  int32_t BucketHead(const Value& key) const {
    return heads_.empty()
               ? -1
               : heads_[key.HashInline() & bucket_mask_];
  }

  std::vector<Tuple> build_rows_;
  // Flat chained hash table over build_rows_ (see class comment).
  std::vector<int32_t> heads_;
  std::vector<int32_t> next_;
  size_t bucket_mask_ = 0;
  bool spilled_ = false;
  size_t probe_spill_bytes_ = 0;

  // Probe cursor: probe_batch_[probe_pos_ - 1] is the current probe row.
  // An exact batch that stops inside its matches leaves match_cursor_ at
  // the next build-row candidate; -1 means the row is finished.
  TupleBatch probe_batch_;
  size_t probe_pos_ = 0;
  int32_t match_cursor_ = -1;
};

/// Nested-loop join for arbitrary (or absent) join predicates; the inner
/// child is materialized in memory once. Used for cross products and
/// non-equijoin conditions.
class NestedLoopJoinExecutor : public Executor {
 public:
  /// `condition` may be empty (cross product). Column indices refer to
  /// the concatenated output schema.
  struct JoinCondition {
    size_t left_index;
    size_t right_index;
    CompareOp op = CompareOp::kEq;
  };

  NestedLoopJoinExecutor(std::unique_ptr<Executor> outer,
                         std::unique_ptr<Executor> inner,
                         std::vector<JoinCondition> conditions,
                         CostMeter* meter);

  Status Init() override;
  Result<bool> NextBatch(TupleBatch* out) override;
  const Schema& output_schema() const override { return schema_; }

 private:
  bool MatchesConditions(const Tuple& outer_row,
                         const Tuple& inner_row) const;

  std::unique_ptr<Executor> outer_;
  std::unique_ptr<Executor> inner_;
  std::vector<JoinCondition> conditions_;
  CostMeter* meter_;
  Schema schema_;

  std::vector<Tuple> inner_rows_;

  // Outer cursor: outer_batch_[outer_pos_ - 1] is the current outer row
  // and inner_pos_ the next inner row to examine against it (at
  // inner_rows_.size(): row finished, or none yet).
  TupleBatch outer_batch_;
  size_t outer_pos_ = 0;
  size_t inner_pos_ = 0;
};

/// Filter on column-column conditions within one tuple (used for the
/// residual edges of multi-edge join connections, e.g. the composite
/// lineitem–partsupp join).
class ColumnFilterExecutor : public Executor {
 public:
  struct Condition {
    size_t left_index;
    size_t right_index;
    CompareOp op = CompareOp::kEq;
  };

  ColumnFilterExecutor(std::unique_ptr<Executor> child,
                       std::vector<Condition> conditions, CostMeter* meter);

  Status Init() override;
  Result<bool> NextBatch(TupleBatch* out) override;
  const Schema& output_schema() const override {
    return child_->output_schema();
  }

 private:
  bool Passes(const Tuple& row) const;

  std::unique_ptr<Executor> child_;
  std::vector<Condition> conditions_;
  CostMeter* meter_;
  TupleBatch child_batch_;
};

/// Drain an executor into a vector (test/example convenience), batch at
/// a time.
Result<std::vector<Tuple>> DrainExecutor(
    Executor* exec, size_t batch_size = kDefaultExecBatchSize);

}  // namespace sqp
