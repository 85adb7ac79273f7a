#include "index/bplus_tree.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cmath>
#include <numeric>
#include <utility>

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
//
// Why ranks give the incremental tree: give pair i the rank of its place in
// the stable key order. When pair i is inserted, every pair j present has
// j < i, so rank_j < rank_i exactly when key_j <= key_i (an equal key that
// arrives later sorts after it). Separators are keys of present pairs, and
// the node tree routes and places a key by upper bound (equal keys go
// right), so it makes the same choices on ranks as on keys; its splits
// depend only on positions. The rank replay therefore splits the same
// nodes at the same places. Every pair ends in the leaf whose rank
// interval holds its rank, so the leaves, in key order, hold the sorted
// pairs cut at the leaf separators.

namespace {

constexpr int kRadixBits = 11;
constexpr uint64_t kRadixMask = (uint64_t{1} << kRadixBits) - 1;
constexpr uint64_t kSignBit = uint64_t{1} << 63;

// Order-preserving 64-bit images: comparing images as unsigned integers
// orders the keys as CompareInline does.
uint64_t IntImage(int64_t v) { return static_cast<uint64_t>(v) ^ kSignBit; }

uint64_t DoubleImage(double d) {
  if (d == 0.0) d = 0.0;  // -0.0 equals 0.0
  const uint64_t bits = std::bit_cast<uint64_t>(d);
  return (bits & kSignBit) != 0 ? ~bits : bits | kSignBit;
}

// Stable LSD radix sort on `image`, 11 bits a pass and only as many passes
// as the span between the least and the greatest image needs. Only the
// positions move; a pass reads each digit through its position, so the
// sort holds 16 bytes a key. Returns the positions of the images in
// sorted order.
std::vector<uint32_t> RadixOrder(std::vector<uint64_t> image) {
  const size_t n = image.size();
  const auto [min_it, max_it] = std::minmax_element(image.begin(), image.end());
  const uint64_t min = *min_it;
  const uint64_t span = *max_it - min;
  for (uint64_t& x : image) x -= min;

  std::vector<uint32_t> order(n);
  std::iota(order.begin(), order.end(), uint32_t{0});
  std::vector<uint32_t> order_out(n);
  for (int shift = 0; shift < 64 && (span >> shift) != 0;
       shift += kRadixBits) {
    auto digit = [&](uint32_t i) { return (image[i] >> shift) & kRadixMask; };
    std::array<size_t, kRadixMask + 1> next{};
    for (uint64_t x : image) next[(x >> shift) & kRadixMask]++;
    if (next[digit(0)] == n) continue;
    size_t sum = 0;
    for (size_t& count : next) sum += std::exchange(count, sum);
    for (uint32_t i : order) order_out[next[digit(i)]++] = i;
    order.swap(order_out);
  }
  return order;
}

// Positions of the keys in stable key order; empty when the keys are
// already in order.
std::vector<uint32_t> StableKeyOrder(const std::vector<Value>& keys) {
  const size_t n = keys.size();
  size_t i = 1;
  while (i < n && keys[i - 1].CompareInline(keys[i]) <= 0) i++;
  if (i >= n) return {};

  const TypeId type = keys[0].type();
  const bool uniform =
      std::all_of(keys.begin(), keys.end(), [&](const Value& k) {
        return k.type() == type &&
               !(type == TypeId::kDouble && std::isnan(k.AsDouble()));
      });
  if (uniform && type != TypeId::kString) {
    std::vector<uint64_t> image(n);
    for (size_t j = 0; j < n; j++) {
      image[j] = type == TypeId::kInt64 ? IntImage(keys[j].AsInt64())
                                        : DoubleImage(keys[j].AsDouble());
    }
    return RadixOrder(std::move(image));
  }
  std::vector<uint32_t> order(n);
  std::iota(order.begin(), order.end(), uint32_t{0});
  std::stable_sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return keys[a].CompareInline(keys[b]) < 0;
  });
  return order;
}

// rank[i] is pair i's place in the stable key order. Empty when the keys
// are already in order.
std::vector<uint32_t> StableKeyRanks(const std::vector<Value>& keys) {
  std::vector<uint32_t> order = StableKeyOrder(keys);
  if (order.empty()) return {};
  std::vector<uint32_t> rank(order.size());
  for (size_t r = 0; r < order.size(); r++) {
    rank[order[r]] = static_cast<uint32_t>(r);
  }
  return rank;
}

// Replays the incremental inserts on ranks 0..n-1. Each leaf owns the
// interval [lo, hi) of ranks between its separators, and leaf_of_ maps
// every rank, inserted or not, to the leaf owning it, so an insert is a
// lookup and an append. A leaf's ranks stay unordered until it overflows;
// the split's separator is then their median. Internal nodes hold
// separator ranks only, to place each new separator and count the height.
class RankReplay {
 public:
  RankReplay(size_t fanout, size_t n) : width_(fanout + 1), leaf_of_(n, 0) {
    // Every leaf of a tree that split holds at least width_ / 2 ranks.
    const size_t max_leaves = n / (width_ / 2) + 1;
    leaves_.reserve(max_leaves);
    ranks_.reserve(max_leaves * width_);
    NewLeaf(Leaf{0, static_cast<uint32_t>(n), 0});
  }

  void Insert(uint32_t rank) {
    const uint32_t id = leaf_of_[rank];
    Leaf& leaf = leaves_[id];
    assert(leaf.lo <= rank && rank < leaf.hi);
    ranks_[id * width_ + leaf.count++] = rank;
    if (leaf.count == width_) SplitLeaf(id);
  }

  size_t height() const { return inner_levels_ + 1; }

  // Where each leaf starts in rank order.
  std::vector<size_t> LeafStarts() const {
    std::vector<size_t> starts;
    starts.reserve(leaves_.size());
    for (const Leaf& leaf : leaves_) starts.push_back(leaf.lo);
    std::sort(starts.begin(), starts.end());
    return starts;
  }

 private:
  struct Leaf {
    uint32_t lo, hi;
    uint32_t count;
  };
  struct Inner {
    std::vector<uint32_t> keys;  // separator ranks, ascending
    // Indexes into inner_; empty on the level above the leaves.
    std::vector<uint32_t> children;
  };

  uint32_t NewLeaf(Leaf leaf) {
    leaves_.push_back(leaf);
    ranks_.resize(ranks_.size() + width_);
    return static_cast<uint32_t>(leaves_.size() - 1);
  }

  // Split a full leaf in half as the node tree does: the lower width_ / 2
  // ranks stay left and the median becomes the separator. The half with
  // the shorter interval moves to a new leaf, so a rank is relabelled only
  // when its leaf's interval at least halves.
  void SplitLeaf(uint32_t id) {
    const size_t mid = width_ / 2;
    const uint32_t fresh = NewLeaf(Leaf{});
    uint32_t* ranks = &ranks_[id * width_];
    uint32_t* fresh_ranks = &ranks_[fresh * width_];
    std::nth_element(ranks, ranks + mid, ranks + width_);
    const uint32_t sep = ranks[mid];
    const Leaf old = leaves_[id];
    const uint32_t left_count = static_cast<uint32_t>(mid);
    const uint32_t right_count = static_cast<uint32_t>(width_ - mid);
    if (sep - old.lo <= old.hi - sep) {
      std::copy(ranks, ranks + mid, fresh_ranks);
      std::copy(ranks + mid, ranks + width_, ranks);
      leaves_[fresh] = Leaf{old.lo, sep, left_count};
      leaves_[id] = Leaf{sep, old.hi, right_count};
      std::fill(leaf_of_.begin() + old.lo, leaf_of_.begin() + sep, fresh);
    } else {
      std::copy(ranks + mid, ranks + width_, fresh_ranks);
      leaves_[fresh] = Leaf{sep, old.hi, right_count};
      leaves_[id] = Leaf{old.lo, sep, left_count};
      std::fill(leaf_of_.begin() + sep, leaf_of_.begin() + old.hi, fresh);
    }
    InsertSeparator(sep);
  }

  // Place a leaf separator in the level above the leaves, splitting full
  // internal nodes upwards as the node tree does: the middle key moves up.
  void InsertSeparator(uint32_t key) {
    if (inner_levels_ == 0) {
      root_ = NewInner(Inner{{key}, {}});
      inner_levels_ = 1;
      return;
    }
    // Every internal key is a leaf boundary, none inside the split leaf's
    // interval, so descending by the separator finds that leaf's parent.
    std::array<uint32_t, 64> path;
    assert(inner_levels_ <= path.size());
    uint32_t node = root_;
    for (size_t level = 0;; level++) {
      path[level] = node;
      if (level + 1 == inner_levels_) break;
      const Inner& inner = inner_[node];
      node = inner.children[UpperBound(inner.keys, key)];
    }
    uint32_t right = 0;  // the node split off the level below, if internal
    for (size_t level = inner_levels_; level-- > 0;) {
      Inner& inner = inner_[path[level]];
      const bool bottom = level + 1 == inner_levels_;
      const size_t at = UpperBound(inner.keys, key);
      inner.keys.insert(inner.keys.begin() + at, key);
      if (!bottom) {
        inner.children.insert(inner.children.begin() + at + 1, right);
      }
      if (inner.keys.size() < width_) return;
      const size_t mid = inner.keys.size() / 2;
      Inner split;
      key = inner.keys[mid];
      split.keys.assign(inner.keys.begin() + mid + 1, inner.keys.end());
      inner.keys.resize(mid);
      if (!bottom) {
        split.children.assign(inner.children.begin() + mid + 1,
                              inner.children.end());
        inner.children.resize(mid + 1);
      }
      right = NewInner(std::move(split));
    }
    root_ = NewInner(Inner{{key}, {root_, right}});
    inner_levels_++;
  }

  uint32_t NewInner(Inner inner) {
    inner_.push_back(std::move(inner));
    return static_cast<uint32_t>(inner_.size() - 1);
  }

  static size_t UpperBound(const std::vector<uint32_t>& keys, uint32_t key) {
    return std::upper_bound(keys.begin(), keys.end(), key) - keys.begin();
  }

  const size_t width_;  // fanout + 1: a leaf splits when it holds width_
  std::vector<uint32_t> leaf_of_;
  std::vector<Leaf> leaves_;
  // Leaf id * width_ + i: the leaf's i-th present rank, unordered.
  std::vector<uint32_t> ranks_;
  std::vector<Inner> inner_;
  uint32_t root_ = 0;
  size_t inner_levels_ = 0;
};

// Move what is at position i of the parallel arrays to rank[i], in place,
// one swap per pair placed; `rank` is used up. The tree then takes the
// builder's arrays over, so a build never holds a second copy of its
// pairs: gathering into new arrays instead ran about as fast but left
// load_recover's peak RSS about 10 MB higher (measured; why it costs more
// than the one extra copy was not pinned down).
void Permute(std::vector<uint32_t>& rank, std::vector<Value>& keys,
             std::vector<page_id_t>& page_ids, std::vector<uint16_t>& slots) {
  for (size_t at = 0; at < rank.size(); at++) {
    while (rank[at] != at) {
      const size_t to = rank[at];
      std::swap(keys[at], keys[to]);
      std::swap(page_ids[at], page_ids[to]);
      std::swap(slots[at], slots[to]);
      std::swap(rank[at], rank[to]);
    }
  }
}

}  // namespace

BPlusTreeBuilder::BPlusTreeBuilder(size_t fanout) : fanout_(fanout) {
  assert(fanout_ >= 4);
}

void BPlusTreeBuilder::Reserve(size_t n) {
  keys_.reserve(n);
  page_ids_.reserve(n);
  slots_.reserve(n);
}

void BPlusTreeBuilder::Insert(Value key, const Rid& rid) {
  assert(keys_.size() < UINT32_MAX);  // ranks are 32-bit
  keys_.push_back(std::move(key));
  page_ids_.push_back(rid.page_id);
  slots_.push_back(rid.slot);
}

std::unique_ptr<BPlusTree> BPlusTreeBuilder::Finish() {
  const size_t n = keys_.size();
  std::unique_ptr<BPlusTree> tree(new BPlusTree());
  tree->fanout_ = fanout_;
  std::vector<uint32_t> rank = StableKeyRanks(keys_);
  {
    RankReplay replay(fanout_, n);
    if (rank.empty()) {
      for (size_t r = 0; r < n; r++) replay.Insert(static_cast<uint32_t>(r));
    } else {
      for (uint32_t r : rank) replay.Insert(r);
    }
    tree->leaf_starts_ = replay.LeafStarts();
    tree->height_ = replay.height();
  }
  Permute(rank, keys_, page_ids_, slots_);
  tree->keys_ = std::move(keys_);
  tree->page_ids_ = std::move(page_ids_);
  tree->slots_ = std::move(slots_);
  keys_.clear();
  page_ids_.clear();
  slots_.clear();
  return tree;
}

}  // namespace sqp
