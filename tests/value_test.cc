#include "common/value.h"

#include <gtest/gtest.h>

#include <functional>
#include <limits>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/rng.h"

namespace sqp {
namespace {

TEST(ValueTest, TypeTags) {
  EXPECT_EQ(Value(int64_t{1}).type(), TypeId::kInt64);
  EXPECT_EQ(Value(1.5).type(), TypeId::kDouble);
  EXPECT_EQ(Value("x").type(), TypeId::kString);
  EXPECT_TRUE(Value(1.5).is_numeric());
  EXPECT_FALSE(Value("x").is_numeric());
}

TEST(ValueTest, IntComparison) {
  EXPECT_LT(Value(int64_t{1}), Value(int64_t{2}));
  EXPECT_EQ(Value(int64_t{5}), Value(int64_t{5}));
  EXPECT_GT(Value(int64_t{9}), Value(int64_t{-9}));
}

TEST(ValueTest, MixedNumericComparisonCoerces) {
  EXPECT_EQ(Value(int64_t{3}), Value(3.0));
  EXPECT_LT(Value(int64_t{3}), Value(3.5));
  EXPECT_GT(Value(4.5), Value(int64_t{4}));
}

TEST(ValueTest, StringComparisonLexicographic) {
  EXPECT_LT(Value("abc"), Value("abd"));
  EXPECT_EQ(Value("same"), Value("same"));
}

TEST(ValueTest, EqualNumericsHashEqual) {
  EXPECT_EQ(Value(int64_t{3}).Hash(), Value(3.0).Hash());
  EXPECT_EQ(Value("k").Hash(), Value("k").Hash());
}

TEST(ValueTest, ToStringFormats) {
  EXPECT_EQ(Value(int64_t{42}).ToString(), "42");
  EXPECT_EQ(Value("hi").ToString(), "'hi'");
  EXPECT_EQ(Value(1.5).ToString(), "1.5000");
}

TEST(ValueTest, StorageSizeAccountsForStrings) {
  EXPECT_EQ(Value(int64_t{1}).StorageSize(), 8u);
  EXPECT_EQ(Value(1.0).StorageSize(), 8u);
  EXPECT_EQ(Value("abcd").StorageSize(), 8u);  // 4 header + 4 chars
}

TEST(ValueTest, NumericValue) {
  EXPECT_DOUBLE_EQ(Value(int64_t{7}).NumericValue(), 7.0);
  EXPECT_DOUBLE_EQ(Value(2.25).NumericValue(), 2.25);
}

TEST(ValueTest, DefaultIsIntZero) {
  Value v;
  EXPECT_EQ(v.type(), TypeId::kInt64);
  EXPECT_EQ(v.AsInt64(), 0);
}

// ------------------------------------------- 16-byte tagged representation

static_assert(sizeof(Value) == 16);
static_assert(std::is_nothrow_move_constructible_v<Value>);
static_assert(std::is_nothrow_move_assignable_v<Value>);

// Strings on both sides of the 14-byte inline limit, with embedded NULs.
std::vector<std::string> SampleStrings() {
  std::string s300(300, '\0');
  for (size_t i = 0; i < s300.size(); i++) s300[i] = static_cast<char>(i);
  return {"",
          "x",
          std::string("\0", 1),
          std::string("fourteen\0bytes", 14),
          std::string("fifteen\0bytes!!", 15),
          s300,
          std::string(300, 'q'),
          std::string(40, 'r')};
}

// Every kind of value a slot can hold: numerics, inline and heap strings.
std::vector<Value> SampleValues() {
  std::vector<Value> out{Value(int64_t{-9}), Value(2.5)};
  for (const std::string& s : SampleStrings()) out.emplace_back(s);
  return out;
}

void ExpectSame(const Value& got, const Value& want) {
  ASSERT_EQ(got.type(), want.type());
  switch (want.type()) {
    case TypeId::kInt64:
      EXPECT_EQ(got.AsInt64(), want.AsInt64());
      break;
    case TypeId::kDouble:
      EXPECT_EQ(got.AsDouble(), want.AsDouble());
      break;
    case TypeId::kString:
      EXPECT_EQ(got.AsString(), want.AsString());
      break;
  }
}

TEST(ValueReprTest, StringsRoundTripAtEveryLength) {
  for (const std::string& s : SampleStrings()) {
    for (const Value& v : {Value(s), Value(std::string_view(s))}) {
      ASSERT_EQ(v.type(), TypeId::kString);
      EXPECT_EQ(v.AsString(), s) << "length " << s.size();
      EXPECT_EQ(v.AsString().size(), s.size());
      EXPECT_EQ(v.StorageSize(), 4 + s.size());
      EXPECT_EQ(v.ToString(), "'" + s + "'");
    }
  }
  EXPECT_EQ(Value("nul-free").AsString(), "nul-free");  // const char*
}

TEST(ValueReprTest, CopyMoveAndSelfAssignment) {
  for (const Value& original : SampleValues()) {
    Value copy(original);
    ExpectSame(copy, original);
    Value assigned(int64_t{1});
    assigned = original;
    ExpectSame(assigned, original);

    Value moved(std::move(copy));
    ExpectSame(moved, original);
    Value move_assigned(std::string(30, 'z'));
    move_assigned = std::move(moved);
    ExpectSame(move_assigned, original);

    Value& alias = move_assigned;
    move_assigned = alias;  // self-assign
    ExpectSame(move_assigned, original);
    move_assigned = std::move(alias);  // self-move
    ExpectSame(move_assigned, original);
    move_assigned.AssignFrom(alias);
    ExpectSame(move_assigned, original);
  }
}

TEST(ValueReprTest, MovedFromValueIsUsable) {
  Value heap(std::string(100, 'h'));
  Value taken(std::move(heap));
  EXPECT_EQ(taken.AsString(), std::string(100, 'h'));
  heap = Value("again");  // a moved-from Value can be reassigned
  EXPECT_EQ(heap.AsString(), "again");
}

TEST(ValueReprTest, AssignAndSetAcrossEveryTagTransition) {
  const std::vector<Value> samples = SampleValues();
  for (const Value& from : samples) {
    for (const Value& to : samples) {
      Value v(from);
      v.AssignFrom(to);
      ExpectSame(v, to);

      Value w(from);
      w = to;
      ExpectSame(w, to);

      Value x(from);
      Value src(to);
      x = std::move(src);
      ExpectSame(x, to);

      Value y(from);
      switch (to.type()) {
        case TypeId::kInt64:
          y.Set(to.AsInt64());
          break;
        case TypeId::kDouble:
          y.Set(to.AsDouble());
          break;
        case TypeId::kString:
          y.SetString(to.AsString().data(), to.AsString().size());
          break;
      }
      ExpectSame(y, to);
    }
  }
}

TEST(ValueReprTest, HeapToHeapOfEqualAndUnequalLength) {
  const std::string a(300, 'a'), b(300, 'b'), c(20, 'c'), d(500, 'd');
  Value v(a);
  v.SetString(b.data(), b.size());  // equal length
  EXPECT_EQ(v.AsString(), b);
  v.SetString(c.data(), c.size());  // shorter, still heap
  EXPECT_EQ(v.AsString(), c);
  v.SetString(d.data(), d.size());  // longer
  EXPECT_EQ(v.AsString(), d);
  v.AssignFrom(Value(a));
  EXPECT_EQ(v.AsString(), a);
}

TEST(ValueReprTest, SetStringFromItsOwnBytes) {
  for (const std::string& s : SampleStrings()) {
    if (s.empty()) continue;
    Value v(s);
    std::string_view tail = v.AsString().substr(1);
    std::string want(tail);
    v.SetString(tail.data(), tail.size());
    EXPECT_EQ(v.AsString(), want) << "length " << s.size();
  }
}

TEST(ValueReprTest, StringHashEqualsStdHashOfString) {
  for (const std::string& s : SampleStrings()) {
    EXPECT_EQ(Value(s).Hash(), std::hash<std::string>{}(s))
        << "length " << s.size();
    EXPECT_EQ(Value(s).HashInline(), std::hash<std::string>{}(s));
  }
}

TEST(ValueReprTest, StringCompareSignMatchesStdString) {
  Rng rng(20);
  auto sign = [](int c) { return (c > 0) - (c < 0); };
  auto random_string = [&rng]() {
    std::string s(rng.NextRange(32), '\0');
    // A small alphabet (with NUL) makes equal bytes and shared prefixes
    // common.
    for (char& c : s) c = "\0abz\xff"[rng.NextRange(5)];
    return s;
  };
  for (int i = 0; i < 10000; i++) {
    std::string a = random_string();
    std::string b = i % 4 == 0 ? a.substr(0, rng.NextRange(a.size() + 1))
                               : random_string();
    if (i % 8 == 1) std::swap(a, b);
    ASSERT_EQ(sign(Value(a).Compare(Value(b))), sign(a.compare(b)))
        << "pair " << i;
  }
}

// ------------------------------------------------------------ double hash

TEST(ValueHashTest, NonIntegralOrOutOfRangeDoublesHashAsDouble) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (double d : {nan, inf, -inf, 1e300, -1e300, 0x1p63, 2.5, -0.25}) {
    EXPECT_EQ(Value(d).Hash(), std::hash<double>{}(d)) << d;
  }
}

TEST(ValueHashTest, IntegralDoublesInRangeHashAsInt64) {
  for (double d : {-0x1p63, 3.0, -7.0, 0.0, 0x1p62, 0x1p63 - 1024.0}) {
    EXPECT_EQ(Value(d).Hash(),
              std::hash<int64_t>{}(static_cast<int64_t>(d)))
        << d;
  }
  EXPECT_EQ(Value(-0x1p63).Hash(),
            Value(std::numeric_limits<int64_t>::min()).Hash());
}

}  // namespace
}  // namespace sqp
