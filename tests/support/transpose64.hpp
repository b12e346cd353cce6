// A one-tile 64x64 bit-matrix transpose (Hacker's Delight 7-3 on plain
// 64-bit words): the test oracle for DesBitslice::transpose, which runs the
// same swap network on all four of the engine's tiles at once in its wide
// word.
#pragma once

#include <cstdint>

namespace fbs::testing {

/// In-place 64x64 transpose: bit (63-c) of m[r] <-> bit (63-r) of m[c].
inline void transpose64(std::uint64_t m[64]) {
  std::uint64_t mask = 0x00000000FFFFFFFFull;
  for (unsigned j = 32; j != 0; j >>= 1, mask ^= mask << j) {
    for (unsigned k = 0; k < 64; k = ((k | j) + 1) & ~j) {
      const std::uint64_t t = (m[k] ^ (m[k | j] >> j)) & mask;
      m[k] ^= t;
      m[k | j] ^= t << j;
    }
  }
}

}  // namespace fbs::testing
