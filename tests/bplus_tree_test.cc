// B+-tree: correctness against a std::multimap reference, structural
// invariants, duplicates, range semantics, scan statistics, key order
// against std::stable_sort, and a shape oracle that rebuilds every tree as
// the incremental node tree and checks the built flat tree reproduces its
// shape and every scan's touches.
#include "index/bplus_tree.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <utility>

#include "common/rng.h"

namespace sqp {
namespace {

Rid MakeRid(uint64_t n) { return Rid{n, static_cast<uint16_t>(n % 7)}; }

TEST(BPlusTreeTest, EmptyScan) {
  auto tree = BPlusTreeBuilder().Finish();
  EXPECT_TRUE(tree->RangeScan(KeyRange::All()).empty());
  EXPECT_TRUE(tree->CheckInvariants());
  EXPECT_EQ(tree->leaf_count(), 1u);
  EXPECT_EQ(tree->height(), 1u);
}

TEST(BPlusTreeTest, SequentialInsertLookup) {
  BPlusTreeBuilder builder(8);
  for (int64_t i = 0; i < 1000; i++) builder.Insert(Value(i), MakeRid(i));
  auto tree = builder.Finish();
  EXPECT_EQ(tree->size(), 1000u);
  EXPECT_TRUE(tree->CheckInvariants());
  EXPECT_GT(tree->height(), 1u);

  auto rids = tree->RangeScan(KeyRange::Exactly(Value(int64_t{500})));
  ASSERT_EQ(rids.size(), 1u);
  EXPECT_EQ(rids[0].page_id, 500u);
  EXPECT_EQ(rids[0].slot, 500u % 7);
}

TEST(BPlusTreeTest, ReverseInsertStaysSorted) {
  BPlusTreeBuilder builder(8);
  for (int64_t i = 999; i >= 0; i--) builder.Insert(Value(i), MakeRid(i));
  auto tree = builder.Finish();
  EXPECT_TRUE(tree->CheckInvariants());
  auto rids = tree->RangeScan(KeyRange::All());
  ASSERT_EQ(rids.size(), 1000u);
  for (size_t i = 0; i < rids.size(); i++) EXPECT_EQ(rids[i].page_id, i);
}

TEST(BPlusTreeTest, DuplicateKeysAllReturned) {
  BPlusTreeBuilder builder(8);
  for (uint64_t i = 0; i < 300; i++) {
    builder.Insert(Value(int64_t{42}), MakeRid(i));
  }
  builder.Insert(Value(int64_t{41}), MakeRid(1000));
  builder.Insert(Value(int64_t{43}), MakeRid(1001));
  auto tree = builder.Finish();
  auto rids = tree->RangeScan(KeyRange::Exactly(Value(int64_t{42})));
  ASSERT_EQ(rids.size(), 300u);
  // Equal keys come back in insertion order.
  for (uint64_t i = 0; i < 300; i++) EXPECT_EQ(rids[i], MakeRid(i));
  EXPECT_TRUE(tree->CheckInvariants());
}

TEST(BPlusTreeTest, RangeBoundsInclusiveExclusive) {
  BPlusTreeBuilder builder(8);
  for (int64_t i = 0; i < 100; i++) builder.Insert(Value(i), MakeRid(i));
  auto tree = builder.Finish();
  KeyRange incl{Value(int64_t{10}), true, Value(int64_t{20}), true};
  EXPECT_EQ(tree->RangeScan(incl).size(), 11u);
  KeyRange excl{Value(int64_t{10}), false, Value(int64_t{20}), false};
  EXPECT_EQ(tree->RangeScan(excl).size(), 9u);
  KeyRange lo_only{Value(int64_t{95}), true, std::nullopt, true};
  EXPECT_EQ(tree->RangeScan(lo_only).size(), 5u);
  KeyRange hi_only{std::nullopt, true, Value(int64_t{4}), false};
  EXPECT_EQ(tree->RangeScan(hi_only).size(), 4u);
}

TEST(BPlusTreeTest, StringKeys) {
  BPlusTreeBuilder builder(8);
  builder.Insert(Value("banana"), MakeRid(1));
  builder.Insert(Value("apple"), MakeRid(2));
  builder.Insert(Value("cherry"), MakeRid(3));
  auto tree = builder.Finish();
  auto rids = tree->RangeScan(
      KeyRange{Value("apple"), true, Value("banana"), true});
  EXPECT_EQ(rids.size(), 2u);
  EXPECT_TRUE(tree->CheckInvariants());
}

TEST(BPlusTreeTest, ScanStatsReportTouches) {
  BPlusTreeBuilder builder(8);
  for (int64_t i = 0; i < 2000; i++) builder.Insert(Value(i), MakeRid(i));
  auto tree = builder.Finish();
  IndexScanStats stats;
  auto rids = tree->RangeScan(
      KeyRange{Value(int64_t{0}), true, Value(int64_t{1999}), true}, &stats);
  EXPECT_EQ(rids.size(), 2000u);
  EXPECT_EQ(stats.leaves_touched, tree->leaf_count());
  EXPECT_EQ(stats.height, tree->height());

  auto one = tree->RangeScan(KeyRange::Exactly(Value(int64_t{7})), &stats);
  EXPECT_EQ(one.size(), 1u);
  EXPECT_LE(stats.leaves_touched, 2u);
}

TEST(BPlusTreeTest, FinishLeavesBuilderEmpty) {
  BPlusTreeBuilder builder(4);
  for (int64_t i = 0; i < 50; i++) builder.Insert(Value(i), MakeRid(i));
  auto first = builder.Finish();
  EXPECT_EQ(first->size(), 50u);
  builder.Insert(Value(int64_t{7}), MakeRid(7));
  auto second = builder.Finish();
  EXPECT_EQ(second->size(), 1u);
  EXPECT_EQ(second->height(), 1u);
  EXPECT_TRUE(second->CheckInvariants());
}

struct FuzzParam {
  uint64_t seed;
  size_t n;
  size_t fanout;
  size_t key_space;
};

class BPlusTreeFuzz : public ::testing::TestWithParam<FuzzParam> {};

TEST_P(BPlusTreeFuzz, MatchesMultimapReference) {
  const FuzzParam p = GetParam();
  Rng rng(p.seed);
  BPlusTreeBuilder builder(p.fanout);
  std::multimap<int64_t, uint64_t> reference;
  for (size_t i = 0; i < p.n; i++) {
    int64_t key = rng.NextInt(0, static_cast<int64_t>(p.key_space) - 1);
    builder.Insert(Value(key), MakeRid(i));
    reference.emplace(key, i);
  }
  auto tree = builder.Finish();
  ASSERT_TRUE(tree->CheckInvariants());
  ASSERT_EQ(tree->size(), reference.size());

  for (int trial = 0; trial < 40; trial++) {
    int64_t lo = rng.NextInt(0, static_cast<int64_t>(p.key_space) - 1);
    int64_t hi = rng.NextInt(lo, static_cast<int64_t>(p.key_space) - 1);
    bool lo_inc = rng.NextBool(0.5), hi_inc = rng.NextBool(0.5);
    auto rids =
        tree->RangeScan(KeyRange{Value(lo), lo_inc, Value(hi), hi_inc});
    size_t expected = 0;
    for (auto it = reference.begin(); it != reference.end(); ++it) {
      if ((it->first > lo || (it->first == lo && lo_inc)) &&
          (it->first < hi || (it->first == hi && hi_inc))) {
        expected++;
      }
    }
    ASSERT_EQ(rids.size(), expected)
        << "range [" << lo << "," << hi << "] seed " << p.seed;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BPlusTreeFuzz,
    ::testing::Values(FuzzParam{1, 500, 4, 50},     // tiny fanout, many dups
                      FuzzParam{2, 5000, 8, 10000},  // sparse keys
                      FuzzParam{3, 5000, 64, 100},   // heavy duplication
                      FuzzParam{4, 20000, 64, 1000000},
                      FuzzParam{5, 1000, 4, 3}));    // extreme duplication

// ------------------------------------------------------------ shape oracle

// The incremental node tree that defines an index's shape, kept here as
// the reference for shape and scan touches. It
// shares no code with src/index: its own inserts, descent, leaf chain
// walk and range test.
class RefNodeTree {
 public:
  explicit RefNodeTree(size_t fanout) : fanout_(fanout) {
    root_ = std::make_unique<Node>();
  }

  void Insert(const Value& key, const Rid& rid) {
    Split split = InsertRec(root_.get(), key, rid);
    if (split.right) {
      auto root = std::make_unique<Node>();
      root->leaf = false;
      root->keys.push_back(std::move(split.separator));
      root->children.push_back(std::move(root_));
      root->children.push_back(std::move(split.right));
      root_ = std::move(root);
      height_++;
    }
  }

  struct Scan {
    std::vector<Rid> rids;
    size_t leaves_touched = 0;
    size_t height = 0;
  };

  Scan RangeScan(const std::optional<Value>& lo, bool lo_inclusive,
                 const std::optional<Value>& hi, bool hi_inclusive) const {
    auto in_range = [&](const Value& k) {
      if (lo.has_value()) {
        int c = k.Compare(*lo);
        if (c < 0 || (c == 0 && !lo_inclusive)) return false;
      }
      if (hi.has_value()) {
        int c = k.Compare(*hi);
        if (c > 0 || (c == 0 && !hi_inclusive)) return false;
      }
      return true;
    };
    Scan scan;
    scan.height = height_;
    const Node* leaf = root_.get();
    size_t start = 0;
    if (lo.has_value()) {
      while (!leaf->leaf) {
        leaf = leaf->children[LowerBound(leaf->keys, *lo)].get();
      }
      start = LowerBound(leaf->keys, *lo);
    } else {
      while (!leaf->leaf) leaf = leaf->children.front().get();
    }
    scan.leaves_touched = 1;
    for (; leaf != nullptr; start = 0) {
      for (size_t i = start; i < leaf->keys.size(); i++) {
        if (hi.has_value()) {
          int c = leaf->keys[i].Compare(*hi);
          if (c > 0 || (c == 0 && !hi_inclusive)) return scan;
        }
        if (in_range(leaf->keys[i])) scan.rids.push_back(leaf->rids[i]);
      }
      leaf = leaf->next;
      if (leaf != nullptr) scan.leaves_touched++;
    }
    return scan;
  }

  size_t height() const { return height_; }
  size_t leaf_count() const {
    const Node* leaf = root_.get();
    while (!leaf->leaf) leaf = leaf->children.front().get();
    size_t count = 0;
    for (; leaf != nullptr; leaf = leaf->next) count++;
    return count;
  }

 private:
  struct Node {
    bool leaf = true;
    std::vector<Value> keys;
    std::vector<Rid> rids;
    std::vector<std::unique_ptr<Node>> children;
    Node* next = nullptr;
  };
  struct Split {
    std::unique_ptr<Node> right;
    Value separator;
  };

  static size_t UpperBound(const std::vector<Value>& keys, const Value& key) {
    return std::upper_bound(keys.begin(), keys.end(), key,
                            [](const Value& a, const Value& b) {
                              return a.Compare(b) < 0;
                            }) -
           keys.begin();
  }
  static size_t LowerBound(const std::vector<Value>& keys, const Value& key) {
    return std::lower_bound(keys.begin(), keys.end(), key,
                            [](const Value& a, const Value& b) {
                              return a.Compare(b) < 0;
                            }) -
           keys.begin();
  }

  Split InsertRec(Node* node, const Value& key, const Rid& rid) {
    if (node->leaf) {
      size_t pos = UpperBound(node->keys, key);
      node->keys.insert(node->keys.begin() + pos, key);
      node->rids.insert(node->rids.begin() + pos, rid);
      if (node->keys.size() <= fanout_) return {};
      size_t mid = node->keys.size() / 2;
      auto right = std::make_unique<Node>();
      right->keys.assign(node->keys.begin() + mid, node->keys.end());
      right->rids.assign(node->rids.begin() + mid, node->rids.end());
      node->keys.resize(mid);
      node->rids.resize(mid);
      right->next = node->next;
      node->next = right.get();
      Value sep = right->keys.front();
      return Split{std::move(right), std::move(sep)};
    }
    size_t child = UpperBound(node->keys, key);
    Split split = InsertRec(node->children[child].get(), key, rid);
    if (!split.right) return {};
    node->keys.insert(node->keys.begin() + child, split.separator);
    node->children.insert(node->children.begin() + child + 1,
                          std::move(split.right));
    if (node->keys.size() <= fanout_) return {};
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
    return Split{std::move(right), std::move(sep)};
  }

  size_t fanout_;
  std::unique_ptr<Node> root_;
  size_t height_ = 1;
};

enum class KeyKind {
  kDupInts,
  kDoubles,
  kStrings,
  kWideInts,
  kWideDoubles,
  kMixedNumerics
};
enum class Order { kRandom, kSorted, kReverse, kNearlySorted };

constexpr KeyKind kAllKinds[] = {KeyKind::kDupInts, KeyKind::kDoubles,
                                 KeyKind::kStrings, KeyKind::kWideInts,
                                 KeyKind::kWideDoubles,
                                 KeyKind::kMixedNumerics};

// Ints over 50 values; doubles over a small grid that holds both -0.0 and
// 0.0 (equal keys with different bits); strings of 0-40 bytes over a
// 2-letter alphabet, so short ones repeat and long ones live on the heap.
// Wide ints span the whole int64 range, extremes included, and are mostly
// distinct; wide doubles mix +-inf, +-0.0, subnormals and magnitudes up to
// 1e300 (no NaN), so their order-preserving images differ in the top bits.
// Mixed numerics are ints over -10..10 and doubles over its halves, so 3
// and 3.0 are equal keys of different types.
Value RandomKey(KeyKind kind, Rng& rng) {
  switch (kind) {
    case KeyKind::kDupInts:
      return Value(rng.NextInt(0, 49));
    case KeyKind::kDoubles: {
      int64_t r = rng.NextInt(0, 41);
      if (r == 40) return Value(-0.0);
      if (r == 41) return Value(0.0);
      return Value(static_cast<double>(r - 20) * 0.25);
    }
    case KeyKind::kWideInts: {
      switch (rng.NextInt(0, 49)) {
        case 0:
          return Value(std::numeric_limits<int64_t>::min());
        case 1:
          return Value(std::numeric_limits<int64_t>::max());
        case 2:
          return Value(int64_t{-1});
        default:
          return Value(static_cast<int64_t>(rng.NextUint64()));
      }
    }
    case KeyKind::kWideDoubles: {
      const double sign = rng.NextBool(0.5) ? -1.0 : 1.0;
      switch (rng.NextInt(0, 49)) {
        case 0:
          return Value(sign * std::numeric_limits<double>::infinity());
        case 1:
          return Value(sign * 0.0);
        case 2:
          return Value(sign * std::numeric_limits<double>::denorm_min() *
                       static_cast<double>(rng.NextInt(1, 1000)));
        default:
          return Value(sign * (1.0 + 9.0 * rng.NextDouble()) *
                       std::pow(10.0, static_cast<double>(
                                          rng.NextInt(-300, 299))));
      }
    }
    case KeyKind::kMixedNumerics: {
      const int64_t r = rng.NextInt(-20, 20);
      return rng.NextBool(0.5) ? Value(r / 2)
                               : Value(static_cast<double>(r) / 2);
    }
    case KeyKind::kStrings: {
      std::string s(static_cast<size_t>(rng.NextInt(0, 40)), 'a');
      for (char& c : s) c = rng.NextBool(0.5) ? 'a' : 'b';
      return Value(s);
    }
  }
  return Value();
}

// Bounds of the other numeric type for a numeric kind, in key order, then
// NaN (which compares equal to every number); none for strings. An int
// column is probed with halves, integral doubles, +-0.0, +-inf and the
// int64 extremes as doubles (-2^63 equals INT64_MIN, 2^63 lies past
// INT64_MAX); a double column with ints, the int64 extremes included.
// Mixed numerics get both.
std::vector<Value> CrossTypeProbes(KeyKind kind) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  std::vector<Value> probes;
  if (kind == KeyKind::kStrings) return probes;
  if (kind != KeyKind::kDoubles && kind != KeyKind::kWideDoubles) {
    for (double d : {-kInf, static_cast<double>(kMin), -2.5, -0.5, -0.0, 0.0,
                     2.5, 10.0, 24.5, 49.0, 49.5, static_cast<double>(kMax),
                     kInf}) {
      probes.emplace_back(d);
    }
  }
  if (kind != KeyKind::kDupInts && kind != KeyKind::kWideInts) {
    for (int64_t i : {kMin, int64_t{-5}, int64_t{-1}, int64_t{0}, int64_t{1},
                      int64_t{2}, int64_t{3}, int64_t{5}, kMax}) {
      probes.emplace_back(i);
    }
  }
  std::stable_sort(probes.begin(), probes.end(),
                   [](const Value& a, const Value& b) { return a < b; });
  probes.emplace_back(std::numeric_limits<double>::quiet_NaN());
  return probes;
}

using OracleParam = std::tuple<KeyKind, Order, size_t>;

class ShapeOracle : public ::testing::TestWithParam<OracleParam> {};

TEST_P(ShapeOracle, FlatTreeMatchesNodeTree) {
  const auto [kind, order, fanout] = GetParam();
  for (size_t n : {size_t{0}, size_t{1}, fanout, fanout + 1, size_t{50000}}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    Rng rng(n * 131 + fanout);
    std::vector<Value> keys;
    for (size_t i = 0; i < n; i++) keys.push_back(RandomKey(kind, rng));
    auto less = [](const Value& a, const Value& b) {
      return a.Compare(b) < 0;
    };
    auto greater = [](const Value& a, const Value& b) {
      return a.Compare(b) > 0;
    };
    if (order == Order::kSorted || order == Order::kNearlySorted) {
      std::stable_sort(keys.begin(), keys.end(), less);
    }
    if (order == Order::kReverse) {
      std::stable_sort(keys.begin(), keys.end(), greater);
    }
    if (order == Order::kNearlySorted && n > 1) {
      // A few swaps within the last 5 %, so the input reads as sorted
      // until late.
      const size_t tail = n / 20 + 1;
      for (int swaps = 0; swaps < 3; swaps++) {
        std::swap(keys[n - 1 - rng.NextRange(tail)],
                  keys[n - 1 - rng.NextRange(tail)]);
      }
    }

    RefNodeTree ref(fanout);
    BPlusTreeBuilder builder(fanout);
    for (size_t i = 0; i < n; i++) {
      ref.Insert(keys[i], MakeRid(i));
      builder.Insert(keys[i], MakeRid(i));
    }
    const std::unique_ptr<BPlusTree> tree = builder.Finish();
    ASSERT_TRUE(tree->CheckInvariants());
    EXPECT_EQ(tree->size(), n);
    EXPECT_EQ(tree->height(), ref.height());
    EXPECT_EQ(tree->leaf_count(), ref.leaf_count());
    EXPECT_TRUE(tree->RangeScan(KeyRange::All()) ==
                ref.RangeScan(std::nullopt, true, std::nullopt, true).rids);

    // Bounds are mostly keys present in the tree (so runs of equal keys
    // straddle them), sometimes fresh ones. Trials cycle through the four
    // inclusivity pairs, each with both ends bounded four times out of
    // six and with lo or hi open once; a bounded hi lies at most n/16
    // keys past lo in key order, and one range in ten swaps them so
    // lo > hi.
    auto expect_same_scan = [&](const KeyRange& range,
                                const std::string& trial) {
      IndexScanStats stats;
      std::vector<Rid> got = tree->RangeScan(range, &stats);
      RefNodeTree::Scan want = ref.RangeScan(range.lo, range.lo_inclusive,
                                             range.hi, range.hi_inclusive);
      const std::string where =
          trial + " lo " + (range.lo ? range.lo->ToString() : "-inf") +
          (range.lo_inclusive ? " incl" : " excl") + " hi " +
          (range.hi ? range.hi->ToString() : "+inf") +
          (range.hi_inclusive ? " incl" : " excl");
      ASSERT_TRUE(got == want.rids)
          << where << ": " << got.size() << " vs " << want.rids.size()
          << " rids";
      ASSERT_EQ(stats.leaves_touched, want.leaves_touched) << where;
      ASSERT_EQ(stats.height, want.height) << where;
    };
    std::vector<Value> sorted = keys;
    std::stable_sort(sorted.begin(), sorted.end(), less);
    for (int trial = 0; trial < 200; trial++) {
      const size_t at = sorted.empty() ? 0 : rng.NextRange(sorted.size());
      const size_t hi_at = std::min(
          sorted.size() - 1, at + rng.NextRange(sorted.size() / 16 + 1));
      auto bound = [&](size_t pos) {
        if (sorted.empty() || rng.NextBool(0.2)) return RandomKey(kind, rng);
        return sorted[pos];
      };
      KeyRange range;
      range.lo_inclusive = trial % 2 == 0;
      range.hi_inclusive = trial / 2 % 2 == 0;
      const int shape = trial / 4 % 6;
      if (shape != 4) range.lo = bound(at);
      if (shape != 5) range.hi = bound(hi_at);
      if (range.lo && range.hi && rng.NextBool(0.1)) {
        std::swap(range.lo, range.hi);
      }
      expect_same_scan(range, "trial " + std::to_string(trial));
      if (HasFatalFailure()) return;
    }

    // Probes of the other numeric type, then NaN: a tree that keeps its
    // keys as images answers them by decoding each key it compares, and
    // must give exactly what the node tree's Value comparisons give. Each
    // probe is an exact range and, with the next probe, a range (the last
    // pairs wrap round, so lo > hi), at every inclusivity.
    const std::vector<Value> probes = CrossTypeProbes(kind);
    for (size_t i = 0; i < probes.size(); i++) {
      const Value& probe = probes[i];
      const Value& next = probes[(i + 1) % probes.size()];
      for (int incl = 0; incl < 4; incl++) {
        const bool lo_incl = incl % 2 == 0;
        const bool hi_incl = incl / 2 == 0;
        expect_same_scan(KeyRange{probe, lo_incl, probe, hi_incl}, "probe");
        expect_same_scan(KeyRange{probe, lo_incl, next, hi_incl}, "probe");
        if (HasFatalFailure()) return;
      }
      expect_same_scan(KeyRange{probe, i % 2 == 0, std::nullopt, true},
                       "probe");
      expect_same_scan(KeyRange{std::nullopt, true, probe, i % 2 == 0},
                       "probe");
      if (HasFatalFailure()) return;
    }
  }
}

std::string OracleName(const ::testing::TestParamInfo<OracleParam>& info) {
  static const char* kKinds[] = {"DupInts", "Doubles", "Strings",
                                 "WideInts", "WideDoubles", "MixedNumerics"};
  static const char* kOrders[] = {"Random", "Sorted", "Reverse",
                                  "NearlySorted"};
  return std::string(kKinds[static_cast<int>(std::get<0>(info.param))]) +
         kOrders[static_cast<int>(std::get<1>(info.param))] + "Fanout" +
         std::to_string(std::get<2>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    Inputs, ShapeOracle,
    ::testing::Combine(::testing::ValuesIn(kAllKinds),
                       ::testing::Values(Order::kRandom, Order::kSorted,
                                         Order::kReverse, Order::kNearlySorted),
                       ::testing::Values(size_t{4}, size_t{5}, size_t{8},
                                         size_t{64})),
    OracleName);

}  // namespace
}  // namespace sqp
