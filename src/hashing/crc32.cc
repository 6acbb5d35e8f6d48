#include "hashing/crc32.h"

#include <array>

#include "hashing/hash_function.h"

namespace habf {
namespace {

constexpr uint32_t kPoly = 0xEDB88320u;  // reflected IEEE polynomial

using Crc32Tables = std::array<std::array<uint32_t, 256>, 8>;

/// Slicing-by-8 tables: kTables[0] is the classic bytewise table, and
/// kTables[t][b] is the register contribution of byte b followed by t zero
/// bytes, so one step folds eight input bytes with eight independent loads.
constexpr Crc32Tables MakeTables() {
  Crc32Tables tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) ? kPoly : 0u);
    }
    tables[0][i] = crc;
  }
  for (size_t t = 1; t < 8; ++t) {
    for (uint32_t i = 0; i < 256; ++i) {
      const uint32_t prev = tables[t - 1][i];
      tables[t][i] = (prev >> 8) ^ tables[0][prev & 0xFFu];
    }
  }
  return tables;
}

constexpr Crc32Tables kTables = MakeTables();

/// Little-endian 32-bit load (one mov on x86; byte order fixed everywhere).
inline uint32_t Load32Le(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

}  // namespace

uint32_t Crc32(const void* data, size_t len, uint32_t init) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint32_t crc = ~init;
  for (; len >= 8; len -= 8, p += 8) {
    const uint32_t lo = Load32Le(p) ^ crc;
    const uint32_t hi = Load32Le(p + 4);
    crc = kTables[7][lo & 0xFFu] ^ kTables[6][(lo >> 8) & 0xFFu] ^
          kTables[5][(lo >> 16) & 0xFFu] ^ kTables[4][lo >> 24] ^
          kTables[3][hi & 0xFFu] ^ kTables[2][(hi >> 8) & 0xFFu] ^
          kTables[1][(hi >> 16) & 0xFFu] ^ kTables[0][hi >> 24];
  }
  if (len >= 4) {  // one slicing-by-4 step shortens the bytewise tail
    const uint32_t word = Load32Le(p) ^ crc;
    crc = kTables[3][word & 0xFFu] ^ kTables[2][(word >> 8) & 0xFFu] ^
          kTables[1][(word >> 16) & 0xFFu] ^ kTables[0][word >> 24];
    len -= 4;
    p += 4;
  }
  for (size_t i = 0; i < len; ++i) {
    crc = (crc >> 8) ^ kTables[0][(crc ^ p[i]) & 0xFFu];
  }
  return ~crc;
}

uint64_t Crc32Hash(const void* data, size_t len, uint64_t seed) {
  const uint32_t crc =
      Crc32(data, len, static_cast<uint32_t>(seed ^ (seed >> 32)));
  return Fmix64(crc ^ (seed << 32) ^ len);
}

}  // namespace habf
