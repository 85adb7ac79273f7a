#include "stats/table_stats.h"

#include <bit>
#include <cassert>
#include <charconv>
#include <functional>

namespace sqp {

size_t TableStats::KeySet::Slot(uint64_t key) const {
  // murmur3's 64-bit finalizer spreads keys that differ in a few bits
  // (consecutive ints, doubles) over the whole table.
  key ^= key >> 33;
  key *= 0xFF51AFD7ED558CCDull;
  key ^= key >> 33;
  key *= 0xC4CEB9FE1A85EC53ull;
  key ^= key >> 33;
  return key & (slots_.size() - 1);
}

bool TableStats::KeySet::contains(uint64_t key) const {
  if (key == 0) return has_zero_;
  if (slots_.empty()) return false;
  for (size_t i = Slot(key);; i = (i + 1) & (slots_.size() - 1)) {
    if (slots_[i] == key) return true;
    if (slots_[i] == 0) return false;
  }
}

void TableStats::KeySet::insert(uint64_t key) {
  if (key == 0) {
    has_zero_ = true;
    return;
  }
  if (2 * (size_ + 1) > slots_.size()) {
    std::vector<uint64_t> old = std::move(slots_);
    slots_.assign(old.empty() ? 16 : 2 * old.size(), 0);
    size_ = 0;
    for (uint64_t k : old) {
      if (k != 0) insert(k);
    }
  }
  for (size_t i = Slot(key);; i = (i + 1) & (slots_.size() - 1)) {
    if (slots_[i] == key) return;
    if (slots_[i] == 0) {
      slots_[i] = key;
      size_++;
      return;
    }
  }
}

void TableStats::ByteSet::Grow() {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(old.empty() ? 16 : 2 * old.size(), Slot{});
  const size_t mask = slots_.size() - 1;
  for (const Slot& s : old) {
    if (s.length == kEmpty) continue;
    size_t i = s.hash & mask;
    while (slots_[i].length != kEmpty) i = (i + 1) & mask;
    slots_[i] = s;
  }
}

void TableStats::ByteSet::insert(std::string_view key) {
  if (2 * (size_ + 1) > slots_.size()) Grow();
  const uint64_t hash = std::hash<std::string_view>{}(key);
  const size_t mask = slots_.size() - 1;
  for (size_t i = hash & mask;; i = (i + 1) & mask) {
    Slot& s = slots_[i];
    if (s.length == kEmpty) {
      assert(arena_.size() + key.size() < kEmpty);
      s = Slot{hash, static_cast<uint32_t>(arena_.size()),
               static_cast<uint32_t>(key.size())};
      arena_.append(key);
      size_++;
      return;
    }
    if (s.hash == hash && s.length == key.size() &&
        std::string_view(arena_.data() + s.offset, s.length) == key) {
      return;
    }
  }
}

void TableStats::DistinctSet::Insert(const Value& v) {
  switch (v.type()) {
    case TypeId::kInt64:
      ints.insert(static_cast<uint64_t>(v.AsInt64()));
      return;
    case TypeId::kString:
      strings.insert(v.AsString());
      return;
    case TypeId::kDouble: {
      const double d = v.AsDouble();
      const uint64_t bits = std::bit_cast<uint64_t>(d);
      if (double_bits.contains(bits)) return;
      // std::to_chars in fixed format with precision 6 renders exactly
      // what std::to_string's "%f" does, without the printf machinery
      // or a heap string (the longest image, -DBL_MAX, is 317 chars).
      char image[320];
      char* end = std::to_chars(image, image + sizeof(image), d,
                                std::chars_format::fixed, 6)
                      .ptr;
      doubles.insert(std::string_view(image, end - image));
      if (double_bits.size() < kDistinctCap) double_bits.insert(bits);
      return;
    }
  }
}

TableStats TableStats::Compute(const Schema& schema,
                               const std::vector<Tuple>& rows,
                               uint64_t page_count) {
  TableStats stats;
  stats.Begin(schema);
  for (const Tuple& row : rows) stats.Observe(row);
  stats.Finish(page_count);
  return stats;
}

void TableStats::Begin(const Schema& schema) {
  row_count_ = 0;
  columns_.assign(schema.size(), ColumnStats{});
  distinct_sets_.assign(schema.size(), {});
  building_ = true;
}

void TableStats::Observe(const Tuple& row) {
  assert(building_);
  assert(row.size() == columns_.size());
  row_count_++;
  for (size_t i = 0; i < row.size(); i++) {
    ColumnStats& cs = columns_[i];
    const Value& v = row[i];
    if (!cs.min.has_value() || v.CompareInline(*cs.min) < 0) cs.min = v;
    if (!cs.max.has_value() || v.CompareInline(*cs.max) > 0) cs.max = v;
    if (distinct_sets_[i].size() < kDistinctCap) distinct_sets_[i].Insert(v);
  }
}

void TableStats::Finish(uint64_t page_count) {
  assert(building_);
  page_count_ = page_count;
  for (size_t i = 0; i < columns_.size(); i++) {
    columns_[i].distinct_count = distinct_sets_[i].size();
  }
  distinct_sets_.clear();
  distinct_sets_.shrink_to_fit();
  building_ = false;
}

}  // namespace sqp
