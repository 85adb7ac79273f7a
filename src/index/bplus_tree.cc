#include "index/bplus_tree.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cmath>
#include <numeric>
#include <utility>

namespace sqp {

namespace {

constexpr uint64_t kSignBit = uint64_t{1} << 63;

// Order-preserving 64-bit images: comparing images as unsigned integers
// orders the keys as CompareInline does.
uint64_t IntImage(int64_t v) { return static_cast<uint64_t>(v) ^ kSignBit; }

uint64_t DoubleImage(double d) {
  if (d == 0.0) d = 0.0;  // -0.0 equals 0.0
  const uint64_t bits = std::bit_cast<uint64_t>(d);
  return (bits & kSignBit) != 0 ? ~bits : bits | kSignBit;
}

uint64_t ImageOf(const Value& key) {
  return key.type() == TypeId::kInt64 ? IntImage(key.AsInt64())
                                      : DoubleImage(key.AsDouble());
}

// The key an image stands for (-0.0 comes back as 0.0, an equal key).
Value KeyOf(uint64_t image, TypeId type) {
  if (type == TypeId::kInt64) {
    return Value(static_cast<int64_t>(image ^ kSignBit));
  }
  return Value(std::bit_cast<double>((image & kSignBit) != 0 ? image ^ kSignBit
                                                             : ~image));
}

// The first position in [first, last) where `pred` turns false; `pred`
// holds on a prefix of the range.
template <typename Pred>
size_t PartitionPoint(size_t first, size_t last, Pred pred) {
  while (first < last) {
    const size_t mid = first + (last - first) / 2;
    if (pred(mid)) {
      first = mid + 1;
    } else {
      last = mid;
    }
  }
  return first;
}

}  // namespace

// ---------------------------------------------------------------- BPlusTree

// A scan bound, compared three ways with the key at a position. A probe
// of the column's own image type (and not NaN) compares in image space;
// any other probe compares the decoded key through CompareInline, exactly
// as the Values would.
class BPlusTree::Probe {
 public:
  Probe(const BPlusTree& tree, const Value& probe)
      : tree_(tree), probe_(probe) {
    by_image_ = tree.image_type_ == probe.type() &&
                !(probe.type() == TypeId::kDouble &&
                  std::isnan(probe.AsDouble()));
    if (by_image_) image_ = ImageOf(probe);
  }

  int CompareAt(size_t pos) const {
    if (by_image_) {
      const uint64_t key = tree_.images_[pos];
      return key < image_ ? -1 : (key > image_ ? 1 : 0);
    }
    if (tree_.image_type_.has_value()) {
      return KeyOf(tree_.images_[pos], *tree_.image_type_)
          .CompareInline(probe_);
    }
    return tree_.keys_[pos].CompareInline(probe_);
  }

 private:
  const BPlusTree& tree_;
  const Value& probe_;
  bool by_image_;
  uint64_t image_ = 0;
};

std::vector<Rid> BPlusTree::RangeScan(const KeyRange& range,
                                      IndexScanStats* stats) const {
  // The node tree's descent to `lo` routes by lower bound over its
  // separators, which are the first keys of leaves 1..n-1: it lands on
  // the leaf after every leaf whose first key is below `lo`. Its walk
  // starts at the first key >= lo there and stops at the first key past
  // `hi`, counting each leaf it enters.
  const size_t n = size();
  std::optional<Probe> lo;
  if (range.lo.has_value()) lo.emplace(*this, *range.lo);
  size_t first_leaf = 0;
  size_t begin = 0;
  if (lo.has_value()) {
    auto below_lo = [&](size_t pos) { return lo->CompareAt(pos) < 0; };
    first_leaf = PartitionPoint(1, leaf_starts_.size(), [&](size_t leaf) {
                   return below_lo(leaf_starts_[leaf]);
                 }) -
                 1;
    begin = PartitionPoint(leaf_starts_[first_leaf], n, below_lo);
  }
  size_t end = n;
  if (range.hi.has_value()) {
    const Probe hi(*this, *range.hi);
    end = PartitionPoint(begin, n, [&](size_t pos) {
      const int c = hi.CompareAt(pos);
      return c < 0 || (c == 0 && range.hi_inclusive);
    });
  }
  // An exclusive `lo` skips the keys equal to it, which lead [begin, end).
  size_t from = begin;
  if (lo.has_value() && !range.lo_inclusive) {
    from = PartitionPoint(begin, end,
                          [&](size_t pos) { return lo->CompareAt(pos) == 0; });
  }

  std::vector<Rid> out;
  out.reserve(end - from);
  for (size_t pos = from; pos < end; pos++) {
    out.push_back(Rid{pages_[page_of_[pos]], slots_[pos]});
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
  const size_t n = slots_.size();
  if (page_of_.size() != n) return false;
  if (image_type_.has_value()) {
    if (images_.size() != n || !keys_.empty() ||
        !std::is_sorted(images_.begin(), images_.end())) {
      return false;
    }
  } else {
    if (keys_.size() != n || !images_.empty()) return false;
    for (size_t i = 1; i < n; i++) {
      if (keys_[i - 1].Compare(keys_[i]) > 0) return false;
    }
  }
  for (uint32_t page : page_of_) {
    if (page >= pages_.size()) return false;
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

// Stable LSD radix sort on `image`, 11 bits a pass and only as many passes
// as the span between the least and the greatest image needs. Only the
// positions move; a pass reads each digit through its position, so the
// sort holds 8 bytes a key beside the images. Returns the positions of
// the images in sorted order.
std::vector<uint32_t> RadixOrder(const std::vector<uint64_t>& image) {
  const size_t n = image.size();
  const auto [min_it, max_it] = std::minmax_element(image.begin(), image.end());
  const uint64_t min = *min_it;
  const uint64_t span = *max_it - min;

  std::vector<uint32_t> order(n);
  std::iota(order.begin(), order.end(), uint32_t{0});
  std::vector<uint32_t> order_out(n);
  for (int shift = 0; shift < 64 && (span >> shift) != 0;
       shift += kRadixBits) {
    auto digit = [&](uint64_t x) { return ((x - min) >> shift) & kRadixMask; };
    std::array<size_t, kRadixMask + 1> next{};
    for (uint64_t x : image) next[digit(x)]++;
    if (next[digit(image[0])] == n) continue;
    size_t sum = 0;
    for (size_t& count : next) sum += std::exchange(count, sum);
    for (uint32_t i : order) order_out[next[digit(image[i])]++] = i;
    order.swap(order_out);
  }
  return order;
}

// The type whose images can stand in for every key: int64 or double when
// all keys have it and none is NaN; none for strings and mixed columns.
std::optional<TypeId> ImageType(const std::vector<Value>& keys) {
  if (keys.empty() || keys[0].type() == TypeId::kString) return std::nullopt;
  const TypeId type = keys[0].type();
  for (const Value& k : keys) {
    if (k.type() != type ||
        (type == TypeId::kDouble && std::isnan(k.AsDouble()))) {
      return std::nullopt;
    }
  }
  return type;
}

// Positions of the keys in stable key order; empty when the keys are
// already in order.
std::vector<uint32_t> StableKeyOrder(const std::vector<uint64_t>& images) {
  if (std::is_sorted(images.begin(), images.end())) return {};
  return RadixOrder(images);
}

std::vector<uint32_t> StableKeyOrder(const std::vector<Value>& keys) {
  auto less = [](const Value& a, const Value& b) {
    return a.CompareInline(b) < 0;
  };
  if (std::is_sorted(keys.begin(), keys.end(), less)) return {};
  const size_t n = keys.size();
  std::vector<uint32_t> order(n);
  std::iota(order.begin(), order.end(), uint32_t{0});
  std::stable_sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return keys[a].CompareInline(keys[b]) < 0;
  });
  return order;
}

// rank[i] is pair i's place in the stable key order. Empty when the keys
// are already in order.
template <typename Key>
std::vector<uint32_t> StableKeyRanks(const std::vector<Key>& keys) {
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
template <typename Key>
void Permute(std::vector<uint32_t>& rank, std::vector<Key>& keys,
             std::vector<uint32_t>& page_of, std::vector<uint16_t>& slots) {
  for (size_t at = 0; at < rank.size(); at++) {
    while (rank[at] != at) {
      const size_t to = rank[at];
      std::swap(keys[at], keys[to]);
      std::swap(page_of[at], page_of[to]);
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
  page_of_.reserve(n);
  slots_.reserve(n);
}

void BPlusTreeBuilder::Insert(Value key, const Rid& rid) {
  assert(keys_.size() < UINT32_MAX);  // ranks are 32-bit
  keys_.push_back(std::move(key));
  if (pages_.empty() || pages_.back() != rid.page_id) {
    assert(pages_.size() < UINT32_MAX);
    pages_.push_back(rid.page_id);
  }
  page_of_.push_back(static_cast<uint32_t>(pages_.size() - 1));
  slots_.push_back(rid.slot);
}

std::unique_ptr<BPlusTree> BPlusTreeBuilder::Finish() {
  const size_t n = keys_.size();
  std::unique_ptr<BPlusTree> tree(new BPlusTree());
  tree->fanout_ = fanout_;
  // A numeric column trades its Values for their images before the sort,
  // so the build never holds both alongside the sort's arrays.
  tree->image_type_ = ImageType(keys_);
  if (tree->image_type_.has_value()) {
    tree->images_.reserve(n);
    for (const Value& key : keys_) tree->images_.push_back(ImageOf(key));
    std::vector<Value>().swap(keys_);
  }
  std::vector<uint32_t> rank = tree->image_type_.has_value()
                                   ? StableKeyRanks(tree->images_)
                                   : StableKeyRanks(keys_);
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
  if (tree->image_type_.has_value()) {
    Permute(rank, tree->images_, page_of_, slots_);
  } else {
    Permute(rank, keys_, page_of_, slots_);
    tree->keys_ = std::move(keys_);
  }
  tree->pages_ = std::move(pages_);
  tree->page_of_ = std::move(page_of_);
  tree->slots_ = std::move(slots_);
  keys_.clear();
  pages_.clear();
  page_of_.clear();
  slots_.clear();
  return tree;
}

}  // namespace sqp
