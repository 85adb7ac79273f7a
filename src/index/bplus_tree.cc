#include "index/bplus_tree.h"

#include <algorithm>
#include <cassert>

namespace sqp {

bool KeyRange::Contains(const Value& v) const {
  if (lo.has_value()) {
    int c = v.Compare(*lo);
    if (c < 0 || (c == 0 && !lo_inclusive)) return false;
  }
  if (hi.has_value()) {
    int c = v.Compare(*hi);
    if (c > 0 || (c == 0 && !hi_inclusive)) return false;
  }
  return true;
}

struct BPlusTree::Node {
  bool leaf = true;
  std::vector<Value> keys;
  // Leaf payloads, parallel to keys.
  std::vector<Rid> rids;
  // Internal children: children.size() == keys.size() + 1.
  std::vector<std::unique_ptr<Node>> children;
  // Leaf sibling chain.
  Node* next = nullptr;
};

struct BPlusTree::SplitResult {
  // Empty when no split happened.
  std::unique_ptr<Node> new_right;
  Value separator;
};

BPlusTree::BPlusTree(size_t fanout) : fanout_(fanout) {
  assert(fanout_ >= 4);
  root_ = std::make_unique<Node>();
}

BPlusTree::~BPlusTree() = default;

namespace {
// First index i with keys[i] > key (upper bound): duplicates of `key`
// route left so equal keys cluster at the end of the left sibling chain.
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

// First index i with keys[i] >= key (lower bound).
size_t LowerBound(const std::vector<Value>& keys, const Value& key) {
  size_t lo = 0, hi = keys.size();
  while (lo < hi) {
    size_t mid = (lo + hi) / 2;
    if (keys[mid].CompareInline(key) < 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}
}  // namespace

BPlusTree::SplitResult BPlusTree::InsertRec(Node* node, const Value& key,
                                            const Rid& rid) {
  if (node->leaf) {
    size_t pos = UpperBound(node->keys, key);
    node->keys.insert(node->keys.begin() + pos, key);
    node->rids.insert(node->rids.begin() + pos, rid);
    if (node->keys.size() <= fanout_) return {};
    // Split leaf in half; the separator is the first key of the right.
    size_t mid = node->keys.size() / 2;
    auto right = std::make_unique<Node>();
    right->leaf = true;
    right->keys.assign(node->keys.begin() + mid, node->keys.end());
    right->rids.assign(node->rids.begin() + mid, node->rids.end());
    node->keys.resize(mid);
    node->rids.resize(mid);
    right->next = node->next;
    node->next = right.get();
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
  auto right = std::make_unique<Node>();
  right->leaf = false;
  Value sep = node->keys[mid];
  right->keys.assign(node->keys.begin() + mid + 1, node->keys.end());
  for (size_t i = mid + 1; i < node->children.size(); i++) {
    right->children.push_back(std::move(node->children[i]));
  }
  node->keys.resize(mid);
  node->children.resize(mid + 1);
  return SplitResult{std::move(right), std::move(sep)};
}

void BPlusTree::Insert(const Value& key, const Rid& rid) {
  SplitResult split = InsertRec(root_.get(), key, rid);
  if (split.new_right) {
    auto new_root = std::make_unique<Node>();
    new_root->leaf = false;
    new_root->keys.push_back(std::move(split.separator));
    new_root->children.push_back(std::move(root_));
    new_root->children.push_back(std::move(split.new_right));
    root_ = std::move(new_root);
    height_++;
  }
  size_++;
}

const BPlusTree::Node* BPlusTree::FindLeaf(const Value& key) const {
  const Node* node = root_.get();
  while (!node->leaf) {
    size_t idx = LowerBound(node->keys, key);
    // Route equal keys left (they were inserted left of the separator).
    node = node->children[idx].get();
  }
  return node;
}

std::vector<Rid> BPlusTree::RangeScan(const KeyRange& range,
                                      IndexScanStats* stats) const {
  std::vector<Rid> out;
  const Node* leaf;
  size_t start;
  if (range.lo.has_value()) {
    leaf = FindLeaf(*range.lo);
    start = LowerBound(leaf->keys, *range.lo);
    // Duplicates of lo may live in the preceding leaves; FindLeaf routed
    // left of the separator so `leaf` holds the first occurrence, but if
    // lo is exclusive we may need to skip equal keys below.
  } else {
    const Node* node = root_.get();
    while (!node->leaf) node = node->children.front().get();
    leaf = node;
    start = 0;
  }
  size_t leaves = 1;
  while (leaf != nullptr) {
    for (size_t i = start; i < leaf->keys.size(); i++) {
      const Value& k = leaf->keys[i];
      if (range.hi.has_value()) {
        int c = k.Compare(*range.hi);
        if (c > 0 || (c == 0 && !range.hi_inclusive)) {
          if (stats != nullptr) {
            stats->leaves_touched = leaves;
            stats->height = height_;
          }
          return out;
        }
      }
      if (range.Contains(k)) out.push_back(leaf->rids[i]);
    }
    leaf = leaf->next;
    if (leaf != nullptr) leaves++;
    start = 0;
  }
  if (stats != nullptr) {
    stats->leaves_touched = leaves;
    stats->height = height_;
  }
  return out;
}

size_t BPlusTree::EstimateLeavesTouched(size_t matches) const {
  size_t per_leaf = std::max<size_t>(1, fanout_ / 2);
  return 1 + matches / per_leaf;
}

bool BPlusTree::CheckInvariants() const {
  // Walk the whole tree: keys non-decreasing within nodes, children
  // bracketed by separators, leaf chain sorted, size matches.
  struct Walker {
    size_t counted = 0;
    bool ok = true;

    void Walk(const Node* node, const Value* lo, const Value* hi) {
      if (!ok) return;
      for (size_t i = 0; i + 1 < node->keys.size(); i++) {
        if (node->keys[i].Compare(node->keys[i + 1]) > 0) {
          ok = false;
          return;
        }
      }
      if (!node->keys.empty()) {
        if (lo != nullptr && node->keys.front().Compare(*lo) < 0) ok = false;
        if (hi != nullptr && node->keys.back().Compare(*hi) > 0) ok = false;
        if (!ok) return;
      }
      if (node->leaf) {
        if (node->keys.size() != node->rids.size()) {
          ok = false;
          return;
        }
        counted += node->keys.size();
        return;
      }
      if (node->children.size() != node->keys.size() + 1) {
        ok = false;
        return;
      }
      for (size_t i = 0; i < node->children.size(); i++) {
        const Value* child_lo = i == 0 ? lo : &node->keys[i - 1];
        const Value* child_hi = i == node->keys.size() ? hi : &node->keys[i];
        Walk(node->children[i].get(), child_lo, child_hi);
        if (!ok) return;
      }
    }
  } walker;
  walker.Walk(root_.get(), nullptr, nullptr);
  if (!walker.ok) return false;
  if (walker.counted != size_) return false;

  // Leaf chain covers all leaves in order.
  const Node* node = root_.get();
  while (!node->leaf) node = node->children.front().get();
  size_t chain = 0, chained_leaves = 0;
  const Value* prev = nullptr;
  while (node != nullptr) {
    chained_leaves++;
    for (const Value& k : node->keys) {
      if (prev != nullptr && prev->Compare(k) > 0) return false;
      prev = &k;
      chain++;
    }
    node = node->next;
  }
  return chain == size_ && chained_leaves == leaf_count_;
}

}  // namespace sqp
