// Runtime value model: the engine's tuples are vectors of Value.
//
// Only three physical types are needed by the TPC-H subset workload the
// paper evaluates on: 64-bit integers (keys, dates-as-int), doubles
// (prices, balances), and short strings (segments, manufacturers).
//
// A Value is 16 bytes, 8-aligned, a tagged byte array:
//
//   bytes [0, 8)   int64 | double | heap char* (strings of 15+ bytes)
//   bytes [0, 14)  the characters of a string of 0..14 bytes (inline)
//   bytes [8, 12)  heap string length (u32)
//   byte  14       inline string length, or kHeapLength for a heap string
//   byte  15       TypeId
//
// Multi-byte fields are read and written with std::memcpy, so no union
// member is ever read while inactive. Numerics and inline strings copy as 16
// plain bytes; a heap string owns its buffer, which a copy duplicates
// and a move steals (moves are noexcept). A string is inline exactly
// when its length is at most kInlineCapacity, so every string in the
// TPC-H subset (at most 10 bytes) is copied without an allocation.
//
// Invariants that emission order, spill decisions and page counts
// depend on:
//   - a string hashes to exactly std::hash<std::string> of its bytes
//     (libstdc++ hashes std::string_view identically), which pins the
//     hash-join chain order;
//   - comparing two strings returns what std::string::compare returns;
//   - StorageSize() is 8 for numerics and 4 + length for strings.
#pragma once

#include <cassert>
#include <cstdint>
#include <cstring>
#include <functional>
#include <string>
#include <string_view>

namespace sqp {

enum class TypeId : uint8_t { kInt64 = 0, kDouble = 1, kString = 2 };

const char* TypeName(TypeId type);

/// A single column value. Comparisons between numeric types coerce to
/// double; comparing a string with a numeric is a logic error.
class Value {
 public:
  /// Longest string stored inside the Value itself.
  static constexpr size_t kInlineCapacity = 14;

  Value() noexcept { std::memset(rep_, 0, sizeof(rep_)); }  // int64 0
  explicit Value(int64_t v) noexcept { Store(v, TypeId::kInt64); }
  explicit Value(double v) noexcept { Store(v, TypeId::kDouble); }
  explicit Value(std::string_view s) { StoreString(s.data(), s.size()); }
  explicit Value(const std::string& s) : Value(std::string_view(s)) {}
  explicit Value(const char* s) : Value(std::string_view(s)) {}

  Value(const Value& other) {
    if (other.is_heap()) {
      StoreString(other.heap_data(), other.heap_length());
    } else {
      std::memcpy(rep_, other.rep_, sizeof(rep_));
    }
  }
  Value(Value&& other) noexcept {
    std::memcpy(rep_, other.rep_, sizeof(rep_));
    if (other.is_heap()) other.StoreString(nullptr, 0);  // buffer is ours
  }
  Value& operator=(const Value& other) {
    AssignFrom(other);
    return *this;
  }
  Value& operator=(Value&& other) noexcept {
    if (this != &other) {
      Release();
      std::memcpy(rep_, other.rep_, sizeof(rep_));
      if (other.is_heap()) other.StoreString(nullptr, 0);
    }
    return *this;
  }
  ~Value() { Release(); }

  TypeId type() const { return static_cast<TypeId>(rep_[kTagByte]); }
  bool is_numeric() const { return type() != TypeId::kString; }

  int64_t AsInt64() const {
    assert(type() == TypeId::kInt64);
    return Load<int64_t>(0);
  }
  double AsDouble() const {
    assert(type() == TypeId::kDouble);
    return Load<double>(0);
  }
  /// View of the string's bytes; valid until this Value is modified or
  /// destroyed.
  std::string_view AsString() const {
    assert(type() == TypeId::kString);
    if (is_heap()) return {heap_data(), heap_length()};
    return {reinterpret_cast<const char*>(rep_), rep_[kLengthByte]};
  }

  /// Numeric view of an int64 or double value (asserts on strings).
  double NumericValue() const;

  double NumericValueInline() const {
    if (type() == TypeId::kInt64) return static_cast<double>(AsInt64());
    assert(type() == TypeId::kDouble && "NumericValue on string");
    return AsDouble();
  }

  /// Three-way comparison; totally ordered within numeric and string
  /// domains. Asserts when comparing string with numeric.
  int Compare(const Value& other) const;

  /// Same comparison, defined inline for batch-kernel inner loops
  /// where the out-of-line call (and its un-inlined type dispatch)
  /// shows up per row. Compare() delegates here — one definition.
  int CompareInline(const Value& other) const {
    if (type() == TypeId::kString || other.type() == TypeId::kString) {
      assert(type() == TypeId::kString && other.type() == TypeId::kString &&
             "comparing string with numeric");
      return AsString().compare(other.AsString());
    }
    if (type() == TypeId::kInt64 && other.type() == TypeId::kInt64) {
      int64_t a = AsInt64(), b = other.AsInt64();
      return a < b ? -1 : (a > b ? 1 : 0);
    }
    double a = NumericValueInline(), b = other.NumericValueInline();
    return a < b ? -1 : (a > b ? 1 : 0);
  }

  /// Overwrite this value from `other`. A heap string assigned a heap
  /// string that fits its buffer reuses the buffer; everything else is
  /// a 16-byte copy. For batch kernels recycling output rows.
  void AssignFrom(const Value& other) {
    if (this == &other) return;
    if (other.is_heap()) {
      SetString(other.heap_data(), other.heap_length());
    } else {
      Release();
      std::memcpy(rep_, other.rep_, sizeof(rep_));
    }
  }

  /// In-place setters for deserializing into recycled tuples.
  void Set(int64_t v) {
    Release();
    Store(v, TypeId::kInt64);
  }
  void Set(double v) {
    Release();
    Store(v, TypeId::kDouble);
  }
  /// `data` may point into this Value's own string.
  void SetString(const char* data, size_t len) {
    if (is_heap() && len > kInlineCapacity && len <= heap_length()) {
      std::memmove(heap_data(), data, len);  // reuse the heap buffer
      StoreField(static_cast<uint32_t>(len), kHeapLengthOffset);
      return;
    }
    char* old = is_heap() ? heap_data() : nullptr;  // may hold `data`
    StoreString(data, len);
    delete[] old;
  }

  bool operator==(const Value& other) const { return Compare(other) == 0; }
  bool operator!=(const Value& other) const { return Compare(other) != 0; }
  bool operator<(const Value& other) const { return Compare(other) < 0; }
  bool operator<=(const Value& other) const { return Compare(other) <= 0; }
  bool operator>(const Value& other) const { return Compare(other) > 0; }
  bool operator>=(const Value& other) const { return Compare(other) >= 0; }

  std::string ToString() const;

  /// Stable hash for hash joins and duplicate detection.
  size_t Hash() const;

  /// Same hash, inline for batch-kernel inner loops. Hash() delegates
  /// here — one definition.
  size_t HashInline() const {
    switch (type()) {
      case TypeId::kInt64:
        return std::hash<int64_t>{}(AsInt64());
      case TypeId::kDouble: {
        // Hash doubles through their numeric value so 3 and 3.0 (which
        // compare equal) hash equal too. The range check comes first:
        // casting NaN, ±inf or anything outside [-2^63, 2^63) to int64
        // is undefined.
        double d = AsDouble();
        if (d >= -0x1p63 && d < 0x1p63) {
          int64_t i = static_cast<int64_t>(d);
          if (static_cast<double>(i) == d) return std::hash<int64_t>{}(i);
        }
        return std::hash<double>{}(d);
      }
      case TypeId::kString:
        return std::hash<std::string_view>{}(AsString());
    }
    return 0;
  }

  /// Approximate in-memory/on-page footprint in bytes, used by the
  /// storage layer to translate tuples into page counts.
  size_t StorageSize() const;

 private:
  static constexpr size_t kHeapLengthOffset = 8;
  static constexpr size_t kLengthByte = 14;
  static constexpr size_t kTagByte = 15;
  static constexpr unsigned char kHeapLength = 0xFF;

  template <typename T>
  T Load(size_t offset) const {
    T v;
    std::memcpy(&v, rep_ + offset, sizeof(T));
    return v;
  }
  template <typename T>
  void StoreField(T v, size_t offset) {
    std::memcpy(rep_ + offset, &v, sizeof(T));
  }

  bool is_heap() const { return rep_[kLengthByte] == kHeapLength; }
  char* heap_data() const { return Load<char*>(0); }
  uint32_t heap_length() const { return Load<uint32_t>(kHeapLengthOffset); }

  // Overwrite every field with a numeric; the caller has released any
  // heap buffer.
  template <typename T>
  void Store(T v, TypeId type) {
    static_assert(sizeof(T) == 8);
    std::memset(rep_, 0, sizeof(rep_));
    StoreField(v, 0);
    rep_[kTagByte] = static_cast<unsigned char>(type);
  }

  // Overwrite every field with a copy of data[0..len); the caller has
  // released (or taken over) any heap buffer.
  void StoreString(const char* data, size_t len) {
    if (len <= kInlineCapacity) {
      // Staged through a copy: `data` may point into rep_ itself.
      unsigned char bytes[kInlineCapacity] = {};
      if (len != 0) std::memcpy(bytes, data, len);
      std::memcpy(rep_, bytes, kInlineCapacity);
      rep_[kLengthByte] = static_cast<unsigned char>(len);
    } else {
      assert(len <= UINT32_MAX);
      char* buf = new char[len];
      std::memcpy(buf, data, len);
      std::memset(rep_, 0, kLengthByte);
      StoreField(buf, 0);
      StoreField(static_cast<uint32_t>(len), kHeapLengthOffset);
      rep_[kLengthByte] = kHeapLength;
    }
    rep_[kTagByte] = static_cast<unsigned char>(TypeId::kString);
  }

  void Release() {
    if (is_heap()) delete[] heap_data();
  }

  alignas(8) unsigned char rep_[16];
};

static_assert(sizeof(Value) == 16);

}  // namespace sqp
