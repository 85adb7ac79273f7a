// Tuple = row of Values, with a compact on-page serialization.
#pragma once

#include <cstdint>
#include <vector>

#include "common/value.h"

namespace sqp {

using Tuple = std::vector<Value>;

/// Serialize `tuple` into `out` (appended). Format per value:
///   tag byte (TypeId) | payload (8B numeric, or u32 len + bytes).
void SerializeTuple(const Tuple& tuple, std::vector<uint8_t>* out);

/// Parse one tuple from `data[0..len)`. Asserts on malformed input
/// (pages are produced only by SerializeTuple).
Tuple DeserializeTuple(const uint8_t* data, size_t len);

/// Parse one tuple from `data[0..len)` into `*out` (cleared first).
/// Reuses out's existing heap capacity, so decoding into a recycled
/// TupleBatch slot is allocation-free for numeric rows.
void DeserializeTupleInto(const uint8_t* data, size_t len, Tuple* out);

/// Decode only column `col` of a record SerializeTuple wrote. Yields
/// exactly the Value DeserializeTuple would put at `col`; the columns
/// before it are skipped with pointer arithmetic, so a predicate or an
/// index/histogram build that needs one column decodes no full row.
Value DecodeColumn(const uint8_t* rec, size_t col);

/// Serialized size of a tuple, for page-fit checks.
size_t SerializedTupleSize(const Tuple& tuple);

}  // namespace sqp
