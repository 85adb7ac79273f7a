#include "catalog/schema.h"

namespace sqp {

std::optional<size_t> Schema::ColumnIndex(const std::string& name) const {
  for (size_t i = 0; i < columns_.size(); i++) {
    if (columns_[i].name == name) return i;
  }
  return std::nullopt;
}

Schema Schema::Concat(const Schema& other) const {
  std::vector<Column> cols = columns_;
  cols.insert(cols.end(), other.columns_.begin(), other.columns_.end());
  return Schema(std::move(cols));
}

size_t Schema::EstimatedTupleWidth() const {
  size_t width = 1;  // field-count byte
  for (const auto& col : columns_) {
    width += 1;  // tag byte
    width += col.type == TypeId::kString ? 16 : 8;
  }
  return width;
}

std::string Schema::ToString() const {
  std::string out = "(";
  for (size_t i = 0; i < columns_.size(); i++) {
    if (i > 0) out += ", ";
    out += columns_[i].name;
    out += " ";
    out += TypeName(columns_[i].type);
  }
  out += ")";
  return out;
}

}  // namespace sqp
