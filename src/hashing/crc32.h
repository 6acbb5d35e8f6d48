// Software CRC-32 (IEEE 802.3 polynomial, reflected), slicing-by-8: eight
// compile-time tables fold eight input bytes per step, and one four-byte
// step plus the bytewise table finish the tail. The family adapter widens
// the 32-bit CRC with Fmix64 and folds the seed into the initial register.

#pragma once

#include <cstddef>
#include <cstdint>

namespace habf {

/// Raw CRC-32 (IEEE, reflected) of the buffer with initial register `init`.
uint32_t Crc32(const void* data, size_t len, uint32_t init = 0);

/// Family-signature adapter: seeded, widened CRC-32.
uint64_t Crc32Hash(const void* data, size_t len, uint64_t seed);

}  // namespace habf
