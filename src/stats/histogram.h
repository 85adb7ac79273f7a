// Equi-depth histogram with a most-common-values list.
//
// "Histogram creation" is one of the paper's manipulation types (§3.2): it
// improves the optimizer's selectivity estimates on skewed fields, which
// can flip access-path and join-order decisions. Without a histogram the
// optimizer falls back to uniform assumptions over [min, max].
#pragma once

#include <string>
#include <vector>

#include "common/compare_op.h"
#include "common/value.h"

namespace sqp {

class Histogram {
 public:
  /// Build an equi-depth histogram with `num_buckets` buckets plus a
  /// `num_mcvs`-entry most-common-values list from a full column scan.
  /// Values may be numeric or string; strings are handled purely by the
  /// MCV list and distinct counts.
  static Histogram Build(std::vector<Value> values, size_t num_buckets = 32,
                         size_t num_mcvs = 8);

  /// Fraction of rows satisfying `col op constant`; in [0, 1].
  double EstimateSelectivity(CompareOp op, const Value& constant) const;

  size_t row_count() const { return row_count_; }
  size_t distinct_count() const { return distinct_count_; }
  size_t bucket_count() const { return bounds_.empty() ? 0 : bounds_.size() - 1; }

  std::string ToString() const;

  struct Mcv {
    Value value;
    double fraction = 0;
  };
  /// The parts the estimates read, for tests that pin a build exactly.
  const std::vector<Mcv>& mcvs() const { return mcvs_; }
  const std::vector<double>& bounds() const { return bounds_; }
  const std::vector<double>& counts() const { return counts_; }
  const std::vector<double>& distincts() const { return distincts_; }

 private:
  double EstimateEq(const Value& constant) const;
  double EstimateLt(const Value& constant, bool inclusive) const;

  size_t row_count_ = 0;
  size_t distinct_count_ = 0;
  bool numeric_ = true;

  // Equi-depth buckets over the non-MCV numeric values:
  // bucket i covers [bounds_[i], bounds_[i+1]); counts_[i] rows;
  // distincts_[i] distinct values.
  std::vector<double> bounds_;
  std::vector<double> counts_;
  std::vector<double> distincts_;
  double non_mcv_rows_ = 0;

  std::vector<Mcv> mcvs_;
};

}  // namespace sqp
