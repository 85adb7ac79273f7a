// Page checksums for torn-write detection.
//
// CRC-32 (the reflected 0xEDB88320 polynomial used by zlib, SQLite's
// WAL, and LevelDB's log format) over the full page image, computed
// slicing-by-8 (eight table lookups per 8-byte word). The disk manager
// stores one checksum per durable page in a sidecar array and verifies
// each durable image before its first read is served (again after a
// crash tears it), so a page half-written at a crash surfaces as
// kDataLoss instead of silently wrong query results.
#pragma once

#include <cstddef>
#include <cstdint>

namespace sqp {

/// CRC-32 of `len` bytes starting at `data` (any alignment).
uint32_t Crc32(const uint8_t* data, size_t len);

}  // namespace sqp
