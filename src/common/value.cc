#include "common/value.h"

#include <cassert>
#include <cstdio>
#include <functional>

namespace sqp {

const char* TypeName(TypeId type) {
  switch (type) {
    case TypeId::kInt64:
      return "INT";
    case TypeId::kDouble:
      return "DOUBLE";
    case TypeId::kString:
      return "STRING";
  }
  return "?";
}

double Value::NumericValue() const { return NumericValueInline(); }

int Value::Compare(const Value& other) const {
  return CompareInline(other);
}

std::string Value::ToString() const {
  switch (type()) {
    case TypeId::kInt64:
      return std::to_string(AsInt64());
    case TypeId::kDouble: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.4f", AsDouble());
      return buf;
    }
    case TypeId::kString: {
      const std::string_view s = AsString();
      std::string quoted;
      quoted.reserve(s.size() + 2);
      quoted.append(1, '\'').append(s).append(1, '\'');
      return quoted;
    }
  }
  return "?";
}

size_t Value::Hash() const { return HashInline(); }

size_t Value::StorageSize() const {
  switch (type()) {
    case TypeId::kInt64:
    case TypeId::kDouble:
      return 8;
    case TypeId::kString:
      return 4 + AsString().size();
  }
  return 8;
}

}  // namespace sqp
