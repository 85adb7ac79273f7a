// Column and schema metadata.
//
// Convention inherited from the TPC-H subset workload: column names are
// globally unique (l_orderkey, c_custkey, ...), so an unqualified column
// name identifies its table. The planner relies on this when it looks
// predicate and join columns up by name in a join's concatenated schema.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "common/value.h"

namespace sqp {

struct Column {
  std::string name;
  TypeId type = TypeId::kInt64;

  bool operator==(const Column& other) const {
    return name == other.name && type == other.type;
  }
};

class Schema {
 public:
  Schema() = default;
  explicit Schema(std::vector<Column> columns)
      : columns_(std::move(columns)) {}

  const std::vector<Column>& columns() const { return columns_; }
  size_t size() const { return columns_.size(); }
  const Column& column(size_t i) const { return columns_[i]; }

  /// Index of `name`, or nullopt.
  std::optional<size_t> ColumnIndex(const std::string& name) const;

  bool HasColumn(const std::string& name) const {
    return ColumnIndex(name).has_value();
  }

  /// Schema of a join output: this ++ other.
  Schema Concat(const Schema& other) const;

  /// Average serialized tuple width in bytes, assuming 12 bytes per
  /// string column; used for page-count estimation.
  size_t EstimatedTupleWidth() const;

  std::string ToString() const;

  bool operator==(const Schema& other) const {
    return columns_ == other.columns_;
  }

 private:
  std::vector<Column> columns_;
};

}  // namespace sqp
