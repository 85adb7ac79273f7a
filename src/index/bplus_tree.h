// B+-tree index keyed by Value with Rid payloads (duplicates allowed).
//
// An index is built once and then only read. BPlusTreeBuilder grows a
// node tree one (key, rid) at a time with the classic split-in-half
// algorithm; Finish() freezes it into an immutable BPlusTree that keeps
// only the leaf level as flat arrays. Index-scan charges read the tree's
// shape (leaves touched, height), so the build order fixes the shape and
// the frozen tree must reproduce the node tree's scans exactly.
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
/// order, their rids split into page-id and slot arrays, and the offset
/// at which each leaf starts. Every internal separator of the node tree
/// it was frozen from is the first key of the leaf to its right, so a
/// root-to-leaf descent is one search over the leaves' first keys.
class BPlusTree {
 public:
  /// Collect rids whose key falls in `range`, in key order.
  /// `stats` (optional) receives physical touch counts.
  std::vector<Rid> RangeScan(const KeyRange& range,
                             IndexScanStats* stats = nullptr) const;

  size_t size() const { return keys_.size(); }
  size_t height() const { return height_; }
  size_t leaf_count() const { return leaf_starts_.size(); }

  /// Validate structural invariants (key order, parallel arrays, leaf
  /// fill, height against leaf count); used by property tests.
  bool CheckInvariants() const;

 private:
  friend class BPlusTreeBuilder;
  BPlusTree() = default;

  std::vector<Value> keys_;
  std::vector<page_id_t> page_ids_;
  std::vector<uint16_t> slots_;
  // leaf_starts_[i] is the position of leaf i's first key; an empty tree
  // is one empty leaf.
  std::vector<size_t> leaf_starts_;
  size_t height_ = 1;
  // The builder's fanout, which bounds leaf fill (CheckInvariants).
  size_t fanout_ = 0;
};

/// Builds a BPlusTree by inserting (key, rid) pairs one at a time. Equal
/// keys keep their insertion order.
class BPlusTreeBuilder {
 public:
  explicit BPlusTreeBuilder(size_t fanout = 64);
  ~BPlusTreeBuilder();

  BPlusTreeBuilder(const BPlusTreeBuilder&) = delete;
  BPlusTreeBuilder& operator=(const BPlusTreeBuilder&) = delete;

  void Insert(const Value& key, const Rid& rid);

  /// Freeze the tree built so far; the builder is left empty.
  std::unique_ptr<BPlusTree> Finish();

 private:
  struct Node;
  struct SplitResult;

  std::unique_ptr<Node> NewNode(bool leaf);
  SplitResult InsertRec(Node* node, const Value& key, const Rid& rid);
  void Freeze(std::unique_ptr<Node> node, BPlusTree* out);

  size_t fanout_;
  std::unique_ptr<Node> root_;
  size_t size_ = 0;
  size_t height_ = 1;
  size_t leaf_count_ = 1;
};

}  // namespace sqp
