#include "storage/tuple.h"

#include <cassert>
#include <cstring>

namespace sqp {

namespace {
template <typename T>
void AppendRaw(std::vector<uint8_t>* out, const T& v) {
  size_t off = out->size();
  out->resize(off + sizeof(T));
  std::memcpy(out->data() + off, &v, sizeof(T));
}

template <typename T>
T ReadRaw(const uint8_t* data, size_t* off) {
  T v;
  std::memcpy(&v, data + *off, sizeof(T));
  *off += sizeof(T);
  return v;
}
}  // namespace

void SerializeTuple(const Tuple& tuple, std::vector<uint8_t>* out) {
  out->push_back(static_cast<uint8_t>(tuple.size()));
  for (const Value& v : tuple) {
    out->push_back(static_cast<uint8_t>(v.type()));
    switch (v.type()) {
      case TypeId::kInt64:
        AppendRaw(out, v.AsInt64());
        break;
      case TypeId::kDouble:
        AppendRaw(out, v.AsDouble());
        break;
      case TypeId::kString: {
        const std::string_view s = v.AsString();
        AppendRaw(out, static_cast<uint32_t>(s.size()));
        out->insert(out->end(), s.begin(), s.end());
        break;
      }
    }
  }
}

Tuple DeserializeTuple(const uint8_t* data, size_t len) {
  Tuple tuple;
  DeserializeTupleInto(data, len, &tuple);
  return tuple;
}

void DeserializeTupleInto(const uint8_t* data, size_t len, Tuple* out) {
  size_t off = 0;
  assert(len >= 1);
  uint8_t n = data[off++];
  // When the target already has the right arity (a recycled slot from
  // the same scan), assign elements in place so a long string column
  // reuses its heap buffer; otherwise rebuild it.
  const bool in_place = out->size() == n;
  if (!in_place) {
    out->clear();
    out->reserve(n);
  }
  for (uint8_t i = 0; i < n; i++) {
    assert(off < len);
    TypeId type = static_cast<TypeId>(data[off++]);
    switch (type) {
      case TypeId::kInt64: {
        int64_t v = ReadRaw<int64_t>(data, &off);
        if (in_place) {
          (*out)[i].Set(v);
        } else {
          out->emplace_back(v);
        }
        break;
      }
      case TypeId::kDouble: {
        double v = ReadRaw<double>(data, &off);
        if (in_place) {
          (*out)[i].Set(v);
        } else {
          out->emplace_back(v);
        }
        break;
      }
      case TypeId::kString: {
        uint32_t slen = ReadRaw<uint32_t>(data, &off);
        assert(off + slen <= len);
        const char* s = reinterpret_cast<const char*>(data + off);
        if (in_place) {
          (*out)[i].SetString(s, slen);
        } else {
          out->emplace_back(std::string_view(s, slen));
        }
        off += slen;
        break;
      }
    }
  }
  assert(off <= len);
  (void)len;
}

size_t SerializedTupleSize(const Tuple& tuple) {
  size_t size = 1;
  for (const Value& v : tuple) {
    size += 1;
    switch (v.type()) {
      case TypeId::kInt64:
      case TypeId::kDouble:
        size += 8;
        break;
      case TypeId::kString:
        size += 4 + v.AsString().size();
        break;
    }
  }
  return size;
}

}  // namespace sqp
