#include "stats/histogram.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <map>
#include <sstream>
#include <string_view>

namespace sqp {

Histogram Histogram::Build(std::vector<Value> values, size_t num_buckets,
                           size_t num_mcvs) {
  Histogram h;
  h.row_count_ = values.size();
  if (values.empty()) return h;

  h.numeric_ = values.front().is_numeric();

  // Frequency map (Value::Compare is a total order within one type).
  std::map<double, size_t> numeric_freq;
  // String keys view into `values`, which outlives the map.
  std::map<std::string_view, size_t> string_freq;
  for (const Value& v : values) {
    if (h.numeric_) {
      numeric_freq[v.NumericValue()]++;
    } else {
      string_freq[v.AsString()]++;
    }
  }
  h.distinct_count_ = h.numeric_ ? numeric_freq.size() : string_freq.size();

  // Most common values.
  struct Freq {
    Value value;
    size_t count;
  };
  std::vector<Freq> freqs;
  if (h.numeric_) {
    for (auto& [val, count] : numeric_freq) {
      freqs.push_back({Value(val), count});
    }
  } else {
    for (auto& [val, count] : string_freq) {
      freqs.push_back({Value(val), count});
    }
  }
  std::stable_sort(freqs.begin(), freqs.end(),
                   [](const Freq& a, const Freq& b) {
                     return a.count > b.count;
                   });
  size_t mcv_take = std::min(num_mcvs, freqs.size());
  std::vector<bool> is_mcv(freqs.size(), false);
  for (size_t i = 0; i < mcv_take; i++) {
    h.mcvs_.push_back(
        {freqs[i].value,
         static_cast<double>(freqs[i].count) / h.row_count_});
    is_mcv[i] = true;
  }

  if (!h.numeric_) return h;  // strings: MCVs + distinct count only

  // Equi-depth buckets over the remaining (non-MCV) values.
  std::vector<double> rest;
  for (size_t i = mcv_take; i < freqs.size(); i++) {
    double v = freqs[i].value.NumericValue();
    for (size_t c = 0; c < freqs[i].count; c++) rest.push_back(v);
  }
  h.non_mcv_rows_ = rest.size();
  if (rest.empty()) return h;
  std::sort(rest.begin(), rest.end());

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
