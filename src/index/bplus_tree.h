// B+-tree index keyed by Value with Rid payloads (duplicates allowed).
//
// An index is built once and then only read. Its shape is defined by the
// classic incremental build: insert the (key, rid) pairs one at a time, in
// heap order, into a node tree that splits a full node in half. Index-scan
// charges read that shape (leaves touched, height), so BPlusTreeBuilder
// must return exactly the tree the incremental build would give; it gets
// there by replaying the splits on the pairs' sorted ranks instead of
// descending a node tree per insert. The result is an immutable BPlusTree
// that keeps only the leaf level as flat arrays: 14 bytes an entry for a
// numeric column (a 64-bit key image, a 32-bit page-run index and a
// 16-bit slot).
//
// The tree is memory-resident; the executor converts a scan's leaf
// touches and tree height into simulated I/O (see IndexScanExecutor).
// This approximates an on-disk index without a second on-disk format.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/value.h"
#include "storage/page.h"

namespace sqp {

/// Inclusive/exclusive endpoints of a one-dimensional key range.
/// Unset endpoints mean unbounded.
struct KeyRange {
  std::optional<Value> lo;
  bool lo_inclusive = true;
  std::optional<Value> hi;
  bool hi_inclusive = true;

  static KeyRange All() { return KeyRange{}; }
  static KeyRange Exactly(Value v) {
    return KeyRange{v, true, std::move(v), true};
  }
};

/// Result of a range scan, including the physical touch counts the cost
/// model needs.
struct IndexScanStats {
  size_t leaves_touched = 0;
  size_t height = 0;
};

/// An immutable B+-tree, stored as its leaf level: all keys in leaf
/// order, their rids split into page and slot arrays, and the offset at
/// which each leaf starts. Every internal separator of the node tree it
/// stands for is the first key of the leaf to its right, so a
/// root-to-leaf descent is one search over the leaves' first keys.
///
/// A column whose keys are all int64, or all non-NaN doubles, keeps them
/// as order-preserving 64-bit images; any other column keeps its Values.
/// A rid's page is an index into the list of page runs the builder saw
/// (the heap hands it pairs page by page, so that list has one entry a
/// page).
class BPlusTree {
 public:
  /// Collect rids whose key falls in `range`, in key order.
  /// `stats` (optional) receives physical touch counts.
  std::vector<Rid> RangeScan(const KeyRange& range,
                             IndexScanStats* stats = nullptr) const;

  size_t size() const { return slots_.size(); }
  size_t height() const { return height_; }
  size_t leaf_count() const { return leaf_starts_.size(); }

  /// Validate structural invariants (key order, parallel arrays, leaf
  /// fill, height against leaf count); used by property tests.
  bool CheckInvariants() const;

 private:
  friend class BPlusTreeBuilder;
  class Probe;
  BPlusTree() = default;

  // The keys in leaf order: images_ when image_type_ is set, else keys_.
  std::optional<TypeId> image_type_;
  std::vector<uint64_t> images_;
  std::vector<Value> keys_;
  // Pair i's rid is {pages_[page_of_[i]], slots_[i]}.
  std::vector<page_id_t> pages_;
  std::vector<uint32_t> page_of_;
  std::vector<uint16_t> slots_;
  // leaf_starts_[i] is the position of leaf i's first key; an empty tree
  // is one empty leaf.
  std::vector<size_t> leaf_starts_;
  size_t height_ = 1;
  // The builder's fanout, which bounds leaf fill (CheckInvariants).
  size_t fanout_ = 0;
};

/// Builds the BPlusTree that inserting the pairs one at a time, in the
/// order given, into a split-in-half node tree would give: the same leaf
/// boundaries, height and rid order. Equal keys keep their insertion
/// order. Keys must be totally ordered (no NaN, no strings mixed with
/// numerics).
class BPlusTreeBuilder {
 public:
  explicit BPlusTreeBuilder(size_t fanout = 64);

  BPlusTreeBuilder(const BPlusTreeBuilder&) = delete;
  BPlusTreeBuilder& operator=(const BPlusTreeBuilder&) = delete;

  /// Room for `n` pairs, so Insert() never regrows its arrays.
  void Reserve(size_t n);

  void Insert(Value key, const Rid& rid);

  /// Build the tree from every pair inserted so far; the builder is left
  /// empty.
  std::unique_ptr<BPlusTree> Finish();

 private:
  size_t fanout_;
  // The pairs in insertion order; pages_ holds one entry per run of
  // consecutive pairs on the same page.
  std::vector<Value> keys_;
  std::vector<page_id_t> pages_;
  std::vector<uint32_t> page_of_;
  std::vector<uint16_t> slots_;
};

}  // namespace sqp
