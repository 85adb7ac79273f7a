#include "common/checksum.h"

#include <array>
#include <bit>
#include <cstring>

namespace sqp {

namespace {
static_assert(std::endian::native == std::endian::little,
              "slicing-by-8 word loads assume a little-endian host");

// kTables[0] is the classic byte-at-a-time table; kTables[k][b] is the
// CRC contribution of byte b followed by k zero bytes, so eight table
// lookups fold in one 8-byte word.
using CrcTables = std::array<std::array<uint32_t, 256>, 8>;

constexpr CrcTables MakeCrcTables() {
  CrcTables t{};
  for (uint32_t i = 0; i < 256; i++) {
    uint32_t c = i;
    for (int k = 0; k < 8; k++) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (size_t k = 1; k < t.size(); k++) {
    for (uint32_t i = 0; i < 256; i++) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}

constexpr CrcTables kTables = MakeCrcTables();
}  // namespace

uint32_t Crc32(const uint8_t* data, size_t len) {
  uint32_t crc = 0xFFFFFFFFu;
  for (; len >= 8; data += 8, len -= 8) {
    uint64_t word;
    std::memcpy(&word, data, 8);  // unaligned-safe load
    word ^= crc;
    crc = kTables[7][word & 0xFFu] ^ kTables[6][(word >> 8) & 0xFFu] ^
          kTables[5][(word >> 16) & 0xFFu] ^ kTables[4][(word >> 24) & 0xFFu] ^
          kTables[3][(word >> 32) & 0xFFu] ^ kTables[2][(word >> 40) & 0xFFu] ^
          kTables[1][(word >> 48) & 0xFFu] ^ kTables[0][word >> 56];
  }
  for (; len > 0; data++, len--) {
    crc = kTables[0][(crc ^ *data) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

}  // namespace sqp
