// Basic per-table statistics, always maintained by the catalog.
//
// These are the "cheap" statistics every table has (row/page counts,
// per-column min/max/distinct). Histograms are created separately — by
// DDL or by the speculation subsystem's histogram-creation manipulation.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "catalog/schema.h"
#include "common/value.h"
#include "storage/tuple.h"

namespace sqp {

struct ColumnStats {
  std::optional<Value> min;
  std::optional<Value> max;
  size_t distinct_count = 0;
};

class TableStats {
 public:
  TableStats() = default;

  /// Compute stats from a full pass over the rows.
  static TableStats Compute(const Schema& schema,
                            const std::vector<Tuple>& rows,
                            uint64_t page_count);

  /// Incremental variant used during bulk load: feed rows one by one.
  void Begin(const Schema& schema);
  void Observe(const Tuple& row);
  void Finish(uint64_t page_count);

  uint64_t row_count() const { return row_count_; }
  uint64_t page_count() const { return page_count_; }
  const ColumnStats& column(size_t i) const { return columns_[i]; }
  size_t num_columns() const { return columns_.size(); }

  /// Exact distinct values tracked per column during a build.
  static constexpr size_t kDistinctCap = 1 << 16;

 private:
  uint64_t row_count_ = 0;
  uint64_t page_count_ = 0;
  std::vector<ColumnStats> columns_;
  // Open-addressing set of 64-bit keys (linear probing, power-of-two
  // table at most half full): no allocation per key, which is where
  // node-based sets spent most of a stats build.
  class KeySet {
   public:
    size_t size() const { return size_ + (has_zero_ ? 1 : 0); }
    bool contains(uint64_t key) const;
    void insert(uint64_t key);

   private:
    size_t Slot(uint64_t key) const;
    std::vector<uint64_t> slots_;  // 0 = empty; key 0 is has_zero_
    size_t size_ = 0;
    bool has_zero_ = false;
  };

  // Open-addressing set of byte strings, the same probing as KeySet.
  // The bytes live back to back in one arena; a slot holds the 64-bit
  // hash plus the offset and length of its key there, and equal hashes
  // are settled by a byte compare, so membership is exact. Growing moves
  // only slots (the stored hash re-places them); nothing is allocated
  // per key.
  class ByteSet {
   public:
    size_t size() const { return size_; }
    void insert(std::string_view key);

   private:
    struct Slot {
      uint64_t hash = 0;
      uint32_t offset = 0;
      uint32_t length = kEmpty;
    };
    static constexpr uint32_t kEmpty = UINT32_MAX;
    void Grow();
    std::vector<Slot> slots_;
    std::string arena_;
    size_t size_ = 0;
  };

  // Exact distinct tracking during load, capped to bound memory; beyond
  // the cap the distinct count keeps the cap value (an underestimate,
  // which is how real engines' sampled NDVs behave on huge columns).
  // Values hash by type: ints and strings as themselves, doubles through
  // their std::to_string image (6 decimals, so 1.0000001 and 1.0000004
  // count once), with a memo of bit patterns already counted in front of
  // the conversion. Bits, not `==`: 0.0 and -0.0 have different images.
  // Ints and the memo live in KeySets; strings and double images in
  // ByteSets, inserted straight from the value's bytes or a stack buffer.
  struct DistinctSet {
    KeySet ints;
    ByteSet strings;
    ByteSet doubles;  // to_chars images
    KeySet double_bits;  // memo, capped too

    size_t size() const {
      return ints.size() + strings.size() + doubles.size();
    }
    void Insert(const Value& v);
  };
  std::vector<DistinctSet> distinct_sets_;
  bool building_ = false;
};

}  // namespace sqp
