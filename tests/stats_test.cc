// Statistics: histograms (accuracy against exact selectivities),
// table stats, and the selectivity estimator's fallbacks.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <string_view>
#include <unordered_set>

#include "common/rng.h"
#include "stats/histogram.h"
#include "stats/selectivity.h"
#include "stats/table_stats.h"

namespace sqp {
namespace {

double ExactSelectivity(const std::vector<Value>& values, CompareOp op,
                        const Value& c) {
  size_t n = 0;
  for (const auto& v : values) {
    if (EvalCompare(v.Compare(c), op)) n++;
  }
  return static_cast<double>(n) / values.size();
}

TEST(HistogramTest, EmptyColumn) {
  Histogram h = Histogram::Build({});
  EXPECT_EQ(h.row_count(), 0u);
  EXPECT_EQ(h.EstimateSelectivity(CompareOp::kEq, Value(int64_t{1})), 0.0);
}

TEST(HistogramTest, SingleValueColumn) {
  std::vector<Value> values(100, Value(int64_t{7}));
  Histogram h = Histogram::Build(values);
  EXPECT_EQ(h.distinct_count(), 1u);
  EXPECT_NEAR(h.EstimateSelectivity(CompareOp::kEq, Value(int64_t{7})), 1.0,
              1e-9);
  EXPECT_NEAR(h.EstimateSelectivity(CompareOp::kEq, Value(int64_t{8})), 0.0,
              0.02);
  EXPECT_NEAR(h.EstimateSelectivity(CompareOp::kLt, Value(int64_t{7})), 0.0,
              1e-9);
  EXPECT_NEAR(h.EstimateSelectivity(CompareOp::kLe, Value(int64_t{7})), 1.0,
              1e-9);
}

TEST(HistogramTest, McvCapturesHeavyHitters) {
  std::vector<Value> values;
  for (int i = 0; i < 900; i++) values.emplace_back(int64_t{1});
  for (int i = 0; i < 100; i++) values.emplace_back(int64_t{i + 10});
  Histogram h = Histogram::Build(values);
  EXPECT_NEAR(h.EstimateSelectivity(CompareOp::kEq, Value(int64_t{1})), 0.9,
              0.01);
}

TEST(HistogramTest, StringColumnsUseMcvs) {
  std::vector<Value> values;
  for (int i = 0; i < 700; i++) values.emplace_back("A");
  for (int i = 0; i < 300; i++) values.emplace_back("B");
  Histogram h = Histogram::Build(values);
  EXPECT_NEAR(h.EstimateSelectivity(CompareOp::kEq, Value("A")), 0.7, 0.01);
  EXPECT_NEAR(h.EstimateSelectivity(CompareOp::kEq, Value("B")), 0.3, 0.01);
  EXPECT_NEAR(h.EstimateSelectivity(CompareOp::kNe, Value("A")), 0.3, 0.01);
}

struct HistAccuracyParam {
  uint64_t seed;
  double theta;  // 0 = uniform
  size_t n;
};

class HistogramAccuracy
    : public ::testing::TestWithParam<HistAccuracyParam> {};

TEST_P(HistogramAccuracy, RangeAndEqualityWithinTolerance) {
  const auto p = GetParam();
  Rng rng(p.seed);
  std::vector<Value> values;
  if (p.theta > 0) {
    ZipfGenerator zipf(100, p.theta);
    for (size_t i = 0; i < p.n; i++) {
      values.emplace_back(static_cast<int64_t>(zipf.Next(rng)));
    }
  } else {
    for (size_t i = 0; i < p.n; i++) {
      values.emplace_back(rng.NextInt(0, 99));
    }
  }
  Histogram h = Histogram::Build(values);

  for (int trial = 0; trial < 30; trial++) {
    int64_t c = rng.NextInt(0, 99);
    for (CompareOp op : {CompareOp::kLt, CompareOp::kLe, CompareOp::kGt,
                         CompareOp::kGe, CompareOp::kEq}) {
      double est = h.EstimateSelectivity(op, Value(c));
      double exact = ExactSelectivity(values, op, Value(c));
      double tolerance = op == CompareOp::kEq ? 0.05 : 0.08;
      ASSERT_NEAR(est, exact, tolerance)
          << CompareOpName(op) << " " << c << " theta=" << p.theta;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Distributions, HistogramAccuracy,
    ::testing::Values(HistAccuracyParam{1, 0.0, 20000},
                      HistAccuracyParam{2, 0.85, 20000},
                      HistAccuracyParam{3, 1.2, 20000},
                      HistAccuracyParam{4, 0.85, 500}));

TEST(HistogramTest, DoublesSupported) {
  Rng rng(5);
  std::vector<Value> values;
  for (int i = 0; i < 5000; i++) values.emplace_back(rng.NextDouble(0, 10));
  Histogram h = Histogram::Build(values);
  double est = h.EstimateSelectivity(CompareOp::kLt, Value(2.5));
  EXPECT_NEAR(est, 0.25, 0.05);
}

TEST(HistogramTest, OutOfDomainConstants) {
  std::vector<Value> values;
  for (int i = 0; i < 100; i++) values.emplace_back(int64_t{i});
  Histogram h = Histogram::Build(values);
  EXPECT_NEAR(h.EstimateSelectivity(CompareOp::kLt, Value(int64_t{-5})), 0.0,
              0.01);
  EXPECT_NEAR(h.EstimateSelectivity(CompareOp::kGt, Value(int64_t{500})), 0.0,
              0.01);
  EXPECT_NEAR(h.EstimateSelectivity(CompareOp::kLe, Value(int64_t{500})), 1.0,
              0.01);
}

// Reference histogram: the std::map frequency-count build, kept here
// verbatim in its algorithm so Histogram::Build's sort-based counting is
// checked against code it shares nothing with.
struct ReferenceHistogram {
  size_t distinct_count = 0;
  std::vector<std::pair<Value, double>> mcvs;
  std::vector<double> bounds, counts, distincts;
};

ReferenceHistogram BuildReference(const std::vector<Value>& values,
                                  size_t num_buckets = 32,
                                  size_t num_mcvs = 8) {
  ReferenceHistogram h;
  if (values.empty()) return h;
  const bool numeric = values.front().is_numeric();
  std::map<double, size_t> numeric_freq;
  std::map<std::string_view, size_t> string_freq;
  for (const Value& v : values) {
    if (numeric) {
      numeric_freq[v.NumericValue()]++;
    } else {
      string_freq[v.AsString()]++;
    }
  }
  h.distinct_count = numeric ? numeric_freq.size() : string_freq.size();
  std::vector<std::pair<Value, size_t>> freqs;
  for (auto& [val, count] : numeric_freq) freqs.push_back({Value(val), count});
  for (auto& [val, count] : string_freq) freqs.push_back({Value(val), count});
  std::stable_sort(freqs.begin(), freqs.end(),
                   [](const auto& a, const auto& b) {
                     return a.second > b.second;
                   });
  const size_t mcv_take = std::min(num_mcvs, freqs.size());
  for (size_t i = 0; i < mcv_take; i++) {
    h.mcvs.push_back({freqs[i].first, static_cast<double>(freqs[i].second) /
                                          values.size()});
  }
  if (!numeric) return h;
  std::vector<double> rest;
  for (size_t i = mcv_take; i < freqs.size(); i++) {
    for (size_t c = 0; c < freqs[i].second; c++) {
      rest.push_back(freqs[i].first.NumericValue());
    }
  }
  if (rest.empty()) return h;
  std::sort(rest.begin(), rest.end());
  const size_t buckets = std::min(num_buckets, rest.size());
  const double depth = static_cast<double>(rest.size()) / buckets;
  h.bounds.push_back(rest.front());
  size_t start = 0;
  for (size_t b = 1; b <= buckets; b++) {
    size_t end = b == buckets ? rest.size()
                              : static_cast<size_t>(std::round(b * depth));
    if (end <= start) continue;
    while (end < rest.size() && rest[end] == rest[end - 1]) end++;
    if (end <= start) continue;
    size_t distinct = 1;
    for (size_t i = start + 1; i < end; i++) {
      if (rest[i] != rest[i - 1]) distinct++;
    }
    h.bounds.push_back(rest[end - 1]);
    h.counts.push_back(static_cast<double>(end - start));
    h.distincts.push_back(static_cast<double>(distinct));
    start = end;
    if (start >= rest.size()) break;
  }
  return h;
}

// Same bits, so 0.0 and -0.0 differ.
uint64_t Bits(double d) { return std::bit_cast<uint64_t>(d); }

void ExpectMatchesReference(const std::vector<Value>& values,
                            const std::string& label) {
  SCOPED_TRACE(label + ", " + std::to_string(values.size()) + " values");
  const ReferenceHistogram want = BuildReference(values);
  const Histogram got = Histogram::Build(values);
  EXPECT_EQ(got.row_count(), values.size());
  EXPECT_EQ(got.distinct_count(), want.distinct_count);
  ASSERT_EQ(got.mcvs().size(), want.mcvs.size());
  for (size_t i = 0; i < want.mcvs.size(); i++) {
    const Value& g = got.mcvs()[i].value;
    const Value& w = want.mcvs[i].first;
    ASSERT_EQ(g.type(), w.type()) << "mcv " << i;
    if (w.type() == TypeId::kString) {
      EXPECT_EQ(g.AsString(), w.AsString()) << "mcv " << i;
    } else {
      EXPECT_EQ(Bits(g.AsDouble()), Bits(w.AsDouble())) << "mcv " << i;
    }
    EXPECT_EQ(got.mcvs()[i].fraction, want.mcvs[i].second) << "mcv " << i;
  }
  ASSERT_EQ(got.bounds().size(), want.bounds.size());
  for (size_t i = 0; i < want.bounds.size(); i++) {
    EXPECT_EQ(Bits(got.bounds()[i]), Bits(want.bounds[i])) << "bound " << i;
  }
  EXPECT_EQ(got.counts(), want.counts);
  EXPECT_EQ(got.distincts(), want.distincts);
}

TEST(HistogramTest, BuildMatchesMapReference) {
  Rng rng(20261018);
  for (size_t n : {size_t{0}, size_t{1}, size_t{2}, size_t{50000}}) {
    std::vector<Value> ints, doubles, strings;
    for (size_t i = 0; i < n; i++) {
      // Skewed ints: a dense low range plus a long sparse tail.
      ints.emplace_back(rng.NextInt(0, 3) == 0
                            ? rng.NextInt(-1000000, 1000000)
                            : rng.NextInt(0, 200));
      // Heavy duplicates over 40 values, with both signed zeros spread
      // through the column (which one comes first decides the bits).
      const int64_t k = rng.NextInt(0, 39);
      doubles.emplace_back(k == 0   ? (rng.NextInt(0, 1) ? 0.0 : -0.0)
                           : k < 20 ? k * 0.25
                                    : rng.NextDouble() * 1e3);
      std::string str(static_cast<size_t>(rng.NextInt(0, 40)), 'a');
      for (char& c : str) c = static_cast<char>('a' + rng.NextInt(0, 2));
      strings.emplace_back(str);
    }
    ExpectMatchesReference(ints, "ints");
    ExpectMatchesReference(doubles, "doubles");
    ExpectMatchesReference(strings, "strings");
  }
  // The first-seen signed zero stands for the pair, in either order.
  ExpectMatchesReference({Value(-0.0), Value(0.0), Value(0.0)}, "-0 first");
  ExpectMatchesReference({Value(0.0), Value(-0.0), Value(-0.0)}, "0 first");
  // Eight values outnumber the zeros, so the pair lands in a bucket
  // and -0.0 becomes its lower bound.
  std::vector<Value> zero_in_bucket = {Value(-0.0), Value(0.0)};
  for (int rep = 0; rep < 3; rep++) {
    for (int k = 1; k <= 9; k++) zero_in_bucket.emplace_back(k * 1.0);
  }
  ExpectMatchesReference(zero_in_bucket, "signed zero in a bucket");
  const Histogram zero_bucket = Histogram::Build(zero_in_bucket);
  ASSERT_FALSE(zero_bucket.bounds().empty());
  EXPECT_EQ(Bits(zero_bucket.bounds().front()), Bits(-0.0));
}

// ------------------------------------------------------------ TableStats

TEST(TableStatsTest, MinMaxDistinct) {
  Schema schema({{"a", TypeId::kInt64}, {"s", TypeId::kString}});
  std::vector<Tuple> rows;
  for (int i = 0; i < 100; i++) {
    rows.push_back(Tuple{Value(int64_t{i % 10}), Value(i % 2 ? "x" : "y")});
  }
  TableStats stats = TableStats::Compute(schema, rows, 3);
  EXPECT_EQ(stats.row_count(), 100u);
  EXPECT_EQ(stats.page_count(), 3u);
  EXPECT_EQ(stats.column(0).min->AsInt64(), 0);
  EXPECT_EQ(stats.column(0).max->AsInt64(), 9);
  EXPECT_EQ(stats.column(0).distinct_count, 10u);
  EXPECT_EQ(stats.column(1).distinct_count, 2u);
}

// The distinct rule TableStats must reproduce exactly: one string key
// per value, "i"/"d"/"s" + std::to_string (or the string itself), with
// the cap checked against the column's total before every insert.
size_t StringKeyDistinct(const std::vector<Value>& column) {
  std::unordered_set<std::string> keys;
  for (const Value& v : column) {
    if (keys.size() >= TableStats::kDistinctCap) continue;
    std::string key;
    switch (v.type()) {
      case TypeId::kInt64:
        key = "i";
        key += std::to_string(v.AsInt64());
        break;
      case TypeId::kDouble:
        key = "d";
        key += std::to_string(v.AsDouble());
        break;
      case TypeId::kString:
        key = "s";
        key += v.AsString();
        break;
    }
    keys.insert(std::move(key));
  }
  return keys.size();
}

size_t ObservedDistinct(TypeId type, const std::vector<Value>& column) {
  Schema schema({{"c", type}});
  std::vector<Tuple> rows;
  for (const Value& v : column) rows.push_back(Tuple{v});
  return TableStats::Compute(schema, rows, 1).column(0).distinct_count;
}

TEST(TableStatsTest, DistinctCountMatchesStringKeyRule) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<std::pair<TypeId, std::vector<Value>>> columns;
  // Signed zeros and NaNs alone (no other value shares their images).
  columns.push_back({TypeId::kDouble, {Value(0.0), Value(-0.0)}});
  columns.push_back({TypeId::kDouble, {Value(-0.0), Value(0.0)}});
  columns.push_back(
      {TypeId::kDouble, {Value(nan), Value(-nan), Value(nan), Value(-nan)}});
  // Doubles collapsing at 6 decimals, signed zeros, repeated NaNs.
  columns.push_back(
      {TypeId::kDouble,
       {Value(1.0000001), Value(1.0000004), Value(1.0), Value(1.0000001),
        Value(0.0), Value(-0.0), Value(0.0), Value(-0.0), Value(nan),
        Value(nan), Value(-nan), Value(std::nan("7")), Value(-1e-9),
        Value(1e-9), Value(1e300), Value(-1e300), Value(2.5), Value(2.5),
        // Exact binary ties at the 7th decimal round half-to-even, so
        // each merges with the neighbour named by its image.
        Value(0.0078125), Value(0.007812), Value(0.0234375),
        Value(0.023438)}});
  {
    std::vector<Value> ints, strings;
    for (int i = 0; i < 500; i++) {
      ints.emplace_back(int64_t{i % 37 - 18});
      strings.emplace_back(std::string(i % 3, 'x') + std::to_string(i % 41));
    }
    strings.emplace_back("");
    for (int64_t v : {int64_t{0}, int64_t{-1}, INT64_MIN, INT64_MAX}) {
      ints.emplace_back(v);
    }
    columns.push_back({TypeId::kInt64, ints});
    columns.push_back({TypeId::kString, strings});
  }
  {
    // Past the cap: ints, and doubles where groups of bit patterns share
    // one 6-decimal image and early values recur after the cap is hit.
    std::vector<Value> ints, doubles, mixed;
    const int64_t n = static_cast<int64_t>(TableStats::kDistinctCap) + 900;
    for (int64_t i = 0; i < n; i++) ints.emplace_back(i);
    for (int64_t i = 0; i < 4 * n; i++) {
      doubles.emplace_back(static_cast<double>(i) * 2.5e-7);
    }
    for (int64_t i = 0; i < 1000; i++) doubles.emplace_back(i * 2.5e-7);
    for (int64_t i = 0; i < n; i++) {
      // 5 and 5.0 are different keys under the rule.
      if (i % 2) {
        mixed.emplace_back(i / 2);
      } else {
        mixed.emplace_back(static_cast<double>(i / 2));
      }
    }
    columns.push_back({TypeId::kInt64, ints});
    columns.push_back({TypeId::kDouble, doubles});
    columns.push_back({TypeId::kDouble, mixed});
  }
  {
    // Thousands of distinct strings and double images, so the sets grow
    // many times: strings past the 14-byte inline limit, strings that
    // differ only after an embedded NUL, and prefixes of one another.
    std::vector<Value> strings, doubles;
    for (int i = 0; i < 6000; i++) {
      std::string s = "key-" + std::to_string(i % 5500);
      if (i % 3 == 0) s += std::string(20 + i % 17, 'z');
      strings.emplace_back(s);
      s.push_back('\0');
      s += std::to_string(i % 7);
      strings.emplace_back(s);
      strings.emplace_back(std::string_view(s).substr(0, i % 40));
      doubles.emplace_back(i * 0.001 - 3.0);
      doubles.emplace_back(i * 0.0010000001 - 3.0);
    }
    strings.emplace_back(std::string(1, '\0'));
    strings.emplace_back(std::string(2, '\0'));
    columns.push_back({TypeId::kString, strings});
    columns.push_back({TypeId::kDouble, doubles});
    // Past the cap: a string column whose early values recur.
    std::vector<Value> many;
    const int n = static_cast<int>(TableStats::kDistinctCap) + 700;
    for (int i = 0; i < n; i++) {
      many.emplace_back("long-string-key-" + std::to_string(i));
    }
    for (int i = 0; i < 500; i++) many.push_back(many[i * 3]);
    columns.push_back({TypeId::kString, many});
  }
  for (size_t c = 0; c < columns.size(); c++) {
    const auto& [type, values] = columns[c];
    EXPECT_EQ(ObservedDistinct(type, values), StringKeyDistinct(values))
        << "column " << c;
  }
  // The cases above exercise what they claim to.
  EXPECT_EQ(StringKeyDistinct({Value(1.0000001), Value(1.0000004)}), 1u);
  EXPECT_EQ(StringKeyDistinct({Value(0.0), Value(-0.0)}), 2u);
  EXPECT_EQ(StringKeyDistinct(columns[6].second), TableStats::kDistinctCap);
  EXPECT_EQ(StringKeyDistinct(columns[7].second), TableStats::kDistinctCap);
  EXPECT_GT(StringKeyDistinct(columns[9].second), 5000u);
  EXPECT_GT(StringKeyDistinct(columns[10].second), 5000u);
  EXPECT_EQ(StringKeyDistinct(columns[11].second), TableStats::kDistinctCap);
}

TEST(TableStatsTest, EmptyTable) {
  Schema schema({{"a", TypeId::kInt64}});
  TableStats stats = TableStats::Compute(schema, {}, 0);
  EXPECT_EQ(stats.row_count(), 0u);
  EXPECT_FALSE(stats.column(0).min.has_value());
}

// ----------------------------------------------------------- Selectivity

TEST(SelectivityTest, UniformFallbackRange) {
  ColumnStats stats;
  stats.min = Value(int64_t{0});
  stats.max = Value(int64_t{100});
  stats.distinct_count = 101;
  double est = EstimateSelectionSelectivity(stats, nullptr, CompareOp::kLt,
                                            Value(int64_t{25}));
  EXPECT_NEAR(est, 0.25, 0.01);
  est = EstimateSelectionSelectivity(stats, nullptr, CompareOp::kGe,
                                     Value(int64_t{75}));
  EXPECT_NEAR(est, 0.25, 0.01);
}

TEST(SelectivityTest, UniformFallbackEquality) {
  ColumnStats stats;
  stats.min = Value(int64_t{0});
  stats.max = Value(int64_t{9});
  stats.distinct_count = 10;
  EXPECT_NEAR(EstimateSelectionSelectivity(stats, nullptr, CompareOp::kEq,
                                           Value(int64_t{3})),
              0.1, 1e-9);
  // Out of [min, max]: zero.
  EXPECT_EQ(EstimateSelectionSelectivity(stats, nullptr, CompareOp::kEq,
                                         Value(int64_t{42})),
            0.0);
}

TEST(SelectivityTest, HistogramOverridesUniform) {
  // Skewed data: uniform assumption is badly wrong; histogram fixes it.
  Rng rng(6);
  ZipfGenerator zipf(100, 1.0);
  std::vector<Value> values;
  for (int i = 0; i < 20000; i++) {
    values.emplace_back(static_cast<int64_t>(zipf.Next(rng)));
  }
  Histogram hist = Histogram::Build(values);
  ColumnStats stats;
  stats.min = Value(int64_t{0});
  stats.max = Value(int64_t{99});
  stats.distinct_count = 100;

  double exact = ExactSelectivity(values, CompareOp::kLt, Value(int64_t{5}));
  double uniform = EstimateSelectionSelectivity(stats, nullptr,
                                                CompareOp::kLt,
                                                Value(int64_t{5}));
  double with_hist = EstimateSelectionSelectivity(stats, &hist,
                                                  CompareOp::kLt,
                                                  Value(int64_t{5}));
  EXPECT_GT(std::abs(uniform - exact), 0.15);  // uniform badly wrong
  EXPECT_LT(std::abs(with_hist - exact), 0.1);  // histogram close
}

TEST(SelectivityTest, JoinSelectivityUsesLargerDistinct) {
  EXPECT_DOUBLE_EQ(EstimateJoinSelectivity(100, 1000), 1.0 / 1000);
  EXPECT_DOUBLE_EQ(EstimateJoinSelectivity(0, 0), 1.0);
}

}  // namespace
}  // namespace sqp
