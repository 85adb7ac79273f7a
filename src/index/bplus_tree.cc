#include "index/bplus_tree.h"

#include <algorithm>
#include <cassert>
#include <iterator>

namespace sqp {

// ---------------------------------------------------------------- BPlusTree

std::vector<Rid> BPlusTree::RangeScan(const KeyRange& range,
                                      IndexScanStats* stats) const {
  // The node tree's descent to `lo` routes by lower bound over its
  // separators, which are the first keys of leaves 1..n-1: it lands on
  // the leaf after every leaf whose first key is below `lo`. Its walk
  // starts at the first key >= lo there and stops at the first key past
  // `hi`, counting each leaf it enters.
  size_t first_leaf = 0;
  size_t begin = 0;
  if (range.lo.has_value()) {
    const Value& lo = *range.lo;
    auto below_lo = [&](const Value& k) { return k.CompareInline(lo) < 0; };
    first_leaf =
        std::partition_point(
            leaf_starts_.begin() + 1, leaf_starts_.end(),
            [&](size_t start) { return below_lo(keys_[start]); }) -
        leaf_starts_.begin() - 1;
    begin = std::partition_point(keys_.begin() + leaf_starts_[first_leaf],
                                 keys_.end(), below_lo) -
            keys_.begin();
  }
  size_t end = keys_.size();
  if (range.hi.has_value()) {
    const Value& hi = *range.hi;
    end = std::partition_point(keys_.begin() + begin, keys_.end(),
                               [&](const Value& k) {
                                 int c = k.CompareInline(hi);
                                 return c < 0 || (c == 0 && range.hi_inclusive);
                               }) -
          keys_.begin();
  }
  // An exclusive `lo` skips the keys equal to it, which lead [begin, end).
  size_t from = begin;
  if (range.lo.has_value() && !range.lo_inclusive) {
    const Value& lo = *range.lo;
    from = std::partition_point(
               keys_.begin() + begin, keys_.begin() + end,
               [&](const Value& k) { return k.CompareInline(lo) == 0; }) -
           keys_.begin();
  }

  std::vector<Rid> out;
  out.reserve(end - from);
  for (size_t pos = from; pos < end; pos++) {
    out.push_back(Rid{page_ids_[pos], slots_[pos]});
  }
  if (stats != nullptr) {
    // The walk ends in the leaf holding `end` (the last leaf if it ran
    // off the end).
    size_t last_leaf =
        std::upper_bound(leaf_starts_.begin(), leaf_starts_.end(), end) -
        leaf_starts_.begin() - 1;
    stats->leaves_touched = last_leaf - first_leaf + 1;
    stats->height = height_;
  }
  return out;
}

bool BPlusTree::CheckInvariants() const {
  const size_t n = keys_.size();
  if (page_ids_.size() != n || slots_.size() != n) return false;
  for (size_t i = 1; i < n; i++) {
    if (keys_[i - 1].Compare(keys_[i]) > 0) return false;
  }
  if (leaf_starts_.empty() || leaf_starts_.front() != 0) return false;

  // Leaves hold at most `fanout_` keys; a split leaves both halves at
  // least half full, and only a root leaf may be empty.
  const size_t leaves = leaf_starts_.size();
  for (size_t i = 0; i < leaves; i++) {
    size_t end = i + 1 < leaves ? leaf_starts_[i + 1] : n;
    if (end < leaf_starts_[i]) return false;
    size_t fill = end - leaf_starts_[i];
    if (fill > fanout_ || (leaves > 1 && fill < (fanout_ + 1) / 2)) {
      return false;
    }
  }

  // Height against leaf count: internal nodes have at most fanout + 1
  // children, the root at least 2 and every other at least fanout/2 + 1.
  if (height_ == 0) return false;
  if (height_ == 1) return leaves == 1;
  size_t max_leaves = 1;
  for (size_t level = 1; level < height_ && max_leaves < leaves; level++) {
    max_leaves *= fanout_ + 1;
  }
  size_t min_leaves = 2;
  for (size_t level = 2; level < height_ && min_leaves <= leaves; level++) {
    min_leaves *= fanout_ / 2 + 1;
  }
  return min_leaves <= leaves && leaves <= max_leaves;
}

// --------------------------------------------------------- BPlusTreeBuilder

struct BPlusTreeBuilder::Node {
  bool leaf = true;
  std::vector<Value> keys;
  // Leaf payloads, parallel to keys.
  std::vector<Rid> rids;
  // Internal children: children.size() == keys.size() + 1.
  std::vector<std::unique_ptr<Node>> children;
};

struct BPlusTreeBuilder::SplitResult {
  // Empty when no split happened.
  std::unique_ptr<Node> new_right;
  Value separator;
};

BPlusTreeBuilder::BPlusTreeBuilder(size_t fanout) : fanout_(fanout) {
  assert(fanout_ >= 4);
  root_ = NewNode(true);
}

// A node is allocated at its full capacity, the fanout_ + 1 keys it
// holds just before it splits, so it never regrows: fewer, uniform
// allocations make both the inserts and the frees in Finish() cheaper.
std::unique_ptr<BPlusTreeBuilder::Node> BPlusTreeBuilder::NewNode(bool leaf) {
  auto node = std::make_unique<Node>();
  node->leaf = leaf;
  node->keys.reserve(fanout_ + 1);
  if (leaf) {
    node->rids.reserve(fanout_ + 1);
  } else {
    node->children.reserve(fanout_ + 2);
  }
  return node;
}

BPlusTreeBuilder::~BPlusTreeBuilder() = default;

namespace {
// First index i with keys[i] > key (upper bound): a key equal to a
// separator goes right, and equal keys keep their insertion order.
size_t UpperBound(const std::vector<Value>& keys, const Value& key) {
  size_t lo = 0, hi = keys.size();
  while (lo < hi) {
    size_t mid = (lo + hi) / 2;
    if (keys[mid].CompareInline(key) <= 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}
}  // namespace

BPlusTreeBuilder::SplitResult BPlusTreeBuilder::InsertRec(Node* node,
                                                          const Value& key,
                                                          const Rid& rid) {
  if (node->leaf) {
    size_t pos = UpperBound(node->keys, key);
    node->keys.insert(node->keys.begin() + pos, key);
    node->rids.insert(node->rids.begin() + pos, rid);
    if (node->keys.size() <= fanout_) return {};
    // Split leaf in half; the separator is the first key of the right.
    size_t mid = node->keys.size() / 2;
    auto right = NewNode(true);
    right->keys.assign(node->keys.begin() + mid, node->keys.end());
    right->rids.assign(node->rids.begin() + mid, node->rids.end());
    node->keys.resize(mid);
    node->rids.resize(mid);
    leaf_count_++;
    Value sep = right->keys.front();
    return SplitResult{std::move(right), std::move(sep)};
  }

  size_t child_idx = UpperBound(node->keys, key);
  SplitResult split = InsertRec(node->children[child_idx].get(), key, rid);
  if (!split.new_right) return {};
  node->keys.insert(node->keys.begin() + child_idx, split.separator);
  node->children.insert(node->children.begin() + child_idx + 1,
                        std::move(split.new_right));
  if (node->keys.size() <= fanout_) return {};
  // Split internal node; middle key moves up.
  size_t mid = node->keys.size() / 2;
  auto right = NewNode(false);
  Value sep = node->keys[mid];
  right->keys.assign(node->keys.begin() + mid + 1, node->keys.end());
  for (size_t i = mid + 1; i < node->children.size(); i++) {
    right->children.push_back(std::move(node->children[i]));
  }
  node->keys.resize(mid);
  node->children.resize(mid + 1);
  return SplitResult{std::move(right), std::move(sep)};
}

void BPlusTreeBuilder::Insert(const Value& key, const Rid& rid) {
  SplitResult split = InsertRec(root_.get(), key, rid);
  if (split.new_right) {
    auto new_root = NewNode(false);
    new_root->keys.push_back(std::move(split.separator));
    new_root->children.push_back(std::move(root_));
    new_root->children.push_back(std::move(split.new_right));
    root_ = std::move(new_root);
    height_++;
  }
  size_++;
}

// Appends the leaves under `node` in key order and frees each node once
// it is copied.
void BPlusTreeBuilder::Freeze(std::unique_ptr<Node> node, BPlusTree* out) {
  if (!node->leaf) {
    for (std::unique_ptr<Node>& child : node->children) {
      Freeze(std::move(child), out);
    }
    return;
  }
  out->leaf_starts_.push_back(out->keys_.size());
  out->keys_.insert(out->keys_.end(),
                    std::make_move_iterator(node->keys.begin()),
                    std::make_move_iterator(node->keys.end()));
  for (const Rid& rid : node->rids) {
    out->page_ids_.push_back(rid.page_id);
    out->slots_.push_back(rid.slot);
  }
}

std::unique_ptr<BPlusTree> BPlusTreeBuilder::Finish() {
  std::unique_ptr<BPlusTree> tree(new BPlusTree());
  tree->keys_.reserve(size_);
  tree->page_ids_.reserve(size_);
  tree->slots_.reserve(size_);
  tree->leaf_starts_.reserve(leaf_count_);
  tree->height_ = height_;
  tree->fanout_ = fanout_;
  Freeze(std::move(root_), tree.get());
  root_ = NewNode(true);
  size_ = 0;
  height_ = 1;
  leaf_count_ = 1;
  return tree;
}

}  // namespace sqp
