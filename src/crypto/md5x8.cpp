#include <cstring>

#include "crypto/md5.hpp"
#include "crypto/md5_steps.hpp"

namespace fbs::crypto {

namespace {

/// One MD5 word per lane. GCC and Clang lower the arithmetic to one 256-bit
/// SIMD op where the target has it and to narrower ops otherwise.
typedef std::uint32_t Word __attribute__((vector_size(4 * Md5x8::kLanes)));

}  // namespace

void Md5x8::compress(State& state,
                     const std::array<const std::uint8_t*, kLanes>& blocks) {
  // Transpose: message word w of every lane into one lane word.
  Word m[16];
  for (int w = 0; w < 16; ++w)
    for (std::size_t lane = 0; lane < kLanes; ++lane)
      m[w][lane] = md5_detail::load_le32(blocks[lane] + 4 * w);

  static_assert(sizeof(Word) == sizeof(State) / 4);
  Word a, b, c, d;
  std::memcpy(&a, state[0].data(), sizeof(Word));
  std::memcpy(&b, state[1].data(), sizeof(Word));
  std::memcpy(&c, state[2].data(), sizeof(Word));
  std::memcpy(&d, state[3].data(), sizeof(Word));
  md5_detail::compress(a, b, c, d, m);
  std::memcpy(state[0].data(), &a, sizeof(Word));
  std::memcpy(state[1].data(), &b, sizeof(Word));
  std::memcpy(state[2].data(), &c, sizeof(Word));
  std::memcpy(state[3].data(), &d, sizeof(Word));
}

}  // namespace fbs::crypto
