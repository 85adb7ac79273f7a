#include "stats/histogram.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <sstream>
#include <string_view>

namespace sqp {

Histogram Histogram::Build(std::vector<Value> values, size_t num_buckets,
                           size_t num_mcvs) {
  Histogram h;
  h.row_count_ = values.size();
  if (values.empty()) return h;

  h.numeric_ = values.front().is_numeric();

  // Distinct keys with their counts, in ascending key order: sort the
  // keys, then run-length encode them.
  struct Freq {
    Value value;
    size_t count;
  };
  std::vector<Freq> runs;
  auto encode_runs = [&runs](const auto& sorted) {
    for (size_t i = 0; i < sorted.size();) {
      size_t j = i + 1;
      while (j < sorted.size() && sorted[j] == sorted[i]) j++;
      runs.push_back({Value(sorted[i]), j - i});
      i = j;
    }
  };
  std::vector<double> keys;  // numeric keys, sorted; reused for `rest`
  if (h.numeric_) {
    keys.reserve(values.size());
    for (const Value& v : values) keys.push_back(v.NumericValue());
    std::sort(keys.begin(), keys.end());
    // Equal doubles share their bits except 0.0 and -0.0, which the sort
    // may leave in any order. The zero seen first stands for the pair, as
    // in a frequency map keyed by its first insert.
    auto zeros = std::equal_range(keys.begin(), keys.end(), 0.0);
    if (zeros.first != zeros.second) {
      auto first_zero = std::find_if(values.begin(), values.end(),
                                     [](const Value& v) {
                                       return v.NumericValue() == 0.0;
                                     });
      std::fill(zeros.first, zeros.second, first_zero->NumericValue());
    }
    encode_runs(keys);
  } else {
    // Views into `values`, which outlives them.
    std::vector<std::string_view> views;
    views.reserve(values.size());
    for (const Value& v : values) views.push_back(v.AsString());
    std::sort(views.begin(), views.end());
    encode_runs(views);
  }
  h.distinct_count_ = runs.size();

  // Most common values: the highest counts, ties in key order. Only
  // the first mcv_take places are needed, so a partial sort on (count
  // descending, key ascending) suffices.
  size_t mcv_take = std::min(num_mcvs, runs.size());
  std::vector<size_t> by_count(runs.size());
  for (size_t i = 0; i < runs.size(); i++) by_count[i] = i;
  std::partial_sort(by_count.begin(), by_count.begin() + mcv_take,
                    by_count.end(), [&](size_t a, size_t b) {
                      if (runs[a].count != runs[b].count) {
                        return runs[a].count > runs[b].count;
                      }
                      return a < b;
                    });
  std::vector<bool> is_mcv(runs.size(), false);
  for (size_t i = 0; i < mcv_take; i++) {
    const Freq& f = runs[by_count[i]];
    h.mcvs_.push_back(
        {f.value, static_cast<double>(f.count) / h.row_count_});
    is_mcv[by_count[i]] = true;
  }

  if (!h.numeric_) return h;  // strings: MCVs + distinct count only

  // Equi-depth buckets over the remaining (non-MCV) values, written over
  // the sorted keys (never ahead of them) in ascending run order.
  std::vector<double>& rest = keys;
  size_t kept = 0;
  for (size_t i = 0; i < runs.size(); i++) {
    if (is_mcv[i]) continue;
    std::fill_n(rest.begin() + kept, runs[i].count,
                runs[i].value.NumericValue());
    kept += runs[i].count;
  }
  rest.resize(kept);
  h.non_mcv_rows_ = rest.size();
  if (rest.empty()) return h;

  size_t buckets = std::min(num_buckets, rest.size());
  double depth = static_cast<double>(rest.size()) / buckets;
  h.bounds_.push_back(rest.front());
  size_t start = 0;
  for (size_t b = 1; b <= buckets; b++) {
    size_t end = b == buckets
                     ? rest.size()
                     : static_cast<size_t>(std::round(b * depth));
    if (end <= start) continue;
    // Extend the boundary past duplicates so buckets nest cleanly.
    while (end < rest.size() && rest[end] == rest[end - 1]) end++;
    if (end <= start) continue;
    double hi = rest[end - 1];
    size_t distinct = 1;
    for (size_t i = start + 1; i < end; i++) {
      if (rest[i] != rest[i - 1]) distinct++;
    }
    h.bounds_.push_back(hi);
    h.counts_.push_back(static_cast<double>(end - start));
    h.distincts_.push_back(static_cast<double>(distinct));
    start = end;
    if (start >= rest.size()) break;
  }
  return h;
}

double Histogram::EstimateEq(const Value& constant) const {
  for (const Mcv& mcv : mcvs_) {
    if (mcv.value.type() == constant.type() ||
        (mcv.value.is_numeric() && constant.is_numeric())) {
      if (mcv.value.Compare(constant) == 0) return mcv.fraction;
    }
  }
  if (!numeric_ || bounds_.empty()) {
    // Uniform over non-MCV distinct values.
    size_t non_mcv_distinct =
        distinct_count_ > mcvs_.size() ? distinct_count_ - mcvs_.size() : 1;
    double mcv_mass = 0;
    for (const Mcv& m : mcvs_) mcv_mass += m.fraction;
    return (1.0 - mcv_mass) / non_mcv_distinct;
  }
  if (!constant.is_numeric()) return 0.0;
  double c = constant.NumericValue();
  if (c < bounds_.front() || c > bounds_.back()) return 0.0;
  for (size_t b = 0; b + 1 < bounds_.size(); b++) {
    if (c <= bounds_[b + 1] || b + 2 == bounds_.size()) {
      double in_bucket = counts_[b] / std::max(1.0, distincts_[b]);
      return in_bucket / row_count_;
    }
  }
  return 0.0;
}

double Histogram::EstimateLt(const Value& constant, bool inclusive) const {
  // Mass strictly below `constant` (+ eq mass when inclusive).
  double mass = 0;
  for (const Mcv& mcv : mcvs_) {
    if (!mcv.value.is_numeric() || !constant.is_numeric()) continue;
    int cmp = mcv.value.Compare(constant);
    if (cmp < 0 || (cmp == 0 && inclusive)) mass += mcv.fraction;
  }
  if (numeric_ && !bounds_.empty() && constant.is_numeric()) {
    double c = constant.NumericValue();
    double covered = 0;  // rows below c among non-MCV values
    for (size_t b = 0; b + 1 < bounds_.size(); b++) {
      double lo = bounds_[b], hi = bounds_[b + 1];
      if (c >= hi) {
        covered += counts_[b];
      } else if (c > lo) {
        covered += counts_[b] * (c - lo) / (hi - lo);
        break;
      } else {
        break;
      }
    }
    mass += covered / row_count_;
  }
  return std::clamp(mass, 0.0, 1.0);
}

double Histogram::EstimateSelectivity(CompareOp op,
                                      const Value& constant) const {
  if (row_count_ == 0) return 0.0;
  switch (op) {
    case CompareOp::kEq:
      return std::clamp(EstimateEq(constant), 0.0, 1.0);
    case CompareOp::kNe:
      return std::clamp(1.0 - EstimateEq(constant), 0.0, 1.0);
    case CompareOp::kLt:
      return EstimateLt(constant, /*inclusive=*/false);
    case CompareOp::kLe:
      return EstimateLt(constant, /*inclusive=*/true);
    case CompareOp::kGt:
      return std::clamp(1.0 - EstimateLt(constant, true), 0.0, 1.0);
    case CompareOp::kGe:
      return std::clamp(1.0 - EstimateLt(constant, false), 0.0, 1.0);
  }
  return 0.5;
}

std::string Histogram::ToString() const {
  std::ostringstream os;
  os << "Histogram(rows=" << row_count_ << ", distinct=" << distinct_count_
     << ", mcvs=" << mcvs_.size() << ", buckets=" << bucket_count() << ")";
  return os.str();
}

}  // namespace sqp
