// The table-driven DES round of des.hpp, shared by Des itself (des.cpp) and
// the interleaved CBC kernels (cbc_chains.cpp, built under the kernel
// flags), which run several independent blocks through the same round with
// their table loads overlapped. Internal to the crypto library.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>

#include "crypto/des.hpp"
#include "crypto/des3.hpp"
#include "crypto/des_tables.hpp"

namespace fbs::crypto::des_round {

/// Fused SP tables, one per S-box, indexed by a whole byte of the keyed
/// round input. In the round layout (see des.hpp) S-box i's 6-bit input sits
/// in the top six bits of one byte and the byte's low two bits are other
/// S-boxes' input, so entry v covers the 6-bit input v >> 2. The value is the
/// S-box output put through P and rotated right one bit, the form the halves
/// are kept in. One lookup replaces the row/column decode, the P walk and the
/// mask. 8 x 256 words, 8 KB.
constexpr std::array<std::array<std::uint32_t, 256>, 8> build_sp_tables() {
  std::array<std::array<std::uint32_t, 256>, 8> sp{};
  for (int box = 0; box < 8; ++box) {
    for (int byte = 0; byte < 256; ++byte) {
      // Row = outer two bits, column = inner four (FIPS b1..b6, MSB first).
      const int v = byte >> 2;
      const int row = ((v & 0x20) >> 4) | (v & 1);
      const int col = (v >> 1) & 0xF;
      const std::uint32_t s = des_tables::kSbox[box][row * 16 + col];
      // Place the 4-bit output at FIPS bits 4*box+1 .. 4*box+4, then P.
      const std::uint64_t positioned = static_cast<std::uint64_t>(s)
                                       << (28 - 4 * box);
      const auto p = static_cast<std::uint32_t>(
          des_tables::permute(positioned, des_tables::kPbox, 32));
      sp[box][byte] = std::rotr(p, 1);
    }
  }
  return sp;
}

inline constexpr auto kSp = build_sp_tables();

/// IP as a 5-stage bit-swap network on the big-endian-loaded halves
/// (l = FIPS bits 1-32, r = 33-64); verified bit-exact against the kIp
/// table walk. FP is the inverse: the same involutive stages in reverse.
inline void initial_permutation(std::uint32_t& l, std::uint32_t& r) {
  std::uint32_t t;
  t = ((l >> 4) ^ r) & 0x0F0F0F0Fu;  r ^= t;  l ^= t << 4;
  t = ((l >> 16) ^ r) & 0x0000FFFFu; r ^= t;  l ^= t << 16;
  t = ((r >> 2) ^ l) & 0x33333333u;  l ^= t;  r ^= t << 2;
  t = ((r >> 8) ^ l) & 0x00FF00FFu;  l ^= t;  r ^= t << 8;
  t = ((l >> 1) ^ r) & 0x55555555u;  r ^= t;  l ^= t << 1;
}

inline void final_permutation(std::uint32_t& l, std::uint32_t& r) {
  std::uint32_t t;
  t = ((l >> 1) ^ r) & 0x55555555u;  r ^= t;  l ^= t << 1;
  t = ((r >> 8) ^ l) & 0x00FF00FFu;  l ^= t;  r ^= t << 8;
  t = ((r >> 2) ^ l) & 0x33333333u;  l ^= t;  r ^= t << 2;
  t = ((l >> 16) ^ r) & 0x0000FFFFu; r ^= t;  l ^= t << 16;
  t = ((l >> 4) ^ r) & 0x0F0F0F0Fu;  r ^= t;  l ^= t << 4;
}

/// The cipher function f(R, K) on halves rotated right one bit. Bits
/// [4i .. 4i+5] of rotr(R, 1), read MSB first and cyclically, are group i
/// of E(R). The even groups sit at bits 26/18/10/2 of the rotated half
/// itself and the odd ones at the same bits of it rotated left by four, so
/// two XORs key all eight groups and each S-box reads one byte.
inline std::uint32_t feistel(std::uint32_t u, const DesRoundWords& k) {
  const std::uint32_t even = u ^ k[0];
  const std::uint32_t odd = std::rotl(u, 4) ^ k[1];
  return kSp[0][even >> 24] ^ kSp[2][(even >> 16) & 0xFF] ^
         kSp[4][(even >> 8) & 0xFF] ^ kSp[6][even & 0xFF] ^
         kSp[1][odd >> 24] ^ kSp[3][(odd >> 16) & 0xFF] ^
         kSp[5][(odd >> 8) & 0xFF] ^ kSp[7][odd & 0xFF];
}

}  // namespace fbs::crypto::des_round

namespace fbs::crypto {

template <std::size_t L, bool kDecrypt>
void Des::crypt_lanes(const Des* const* keys, std::uint64_t* blocks) {
  using namespace des_round;
  std::uint32_t l[L];
  std::uint32_t r[L];
  for (std::size_t c = 0; c < L; ++c) {
    l[c] = static_cast<std::uint32_t>(blocks[c] >> 32);
    r[c] = static_cast<std::uint32_t>(blocks[c]);
    initial_permutation(l[c], r[c]);
    l[c] = std::rotr(l[c], 1);
    r[c] = std::rotr(r[c], 1);
  }
  // Decryption is the same network with the round keys in reverse order.
  for (int i = 0; i < 16; i += 2) {
    const int k0 = kDecrypt ? 15 - i : i;
    const int k1 = kDecrypt ? 14 - i : i + 1;
    for (std::size_t c = 0; c < L; ++c)
      l[c] ^= feistel(r[c], keys[c]->round_words_[k0]);
    for (std::size_t c = 0; c < L; ++c)
      r[c] ^= feistel(l[c], keys[c]->round_words_[k1]);
  }
  for (std::size_t c = 0; c < L; ++c) {
    l[c] = std::rotl(l[c], 1);
    r[c] = std::rotl(r[c], 1);
    final_permutation(r[c], l[c]);
    blocks[c] = static_cast<std::uint64_t>(r[c]) << 32 | l[c];
  }
}

template <std::size_t L>
void Des::encrypt_lanes(const Des* const* keys, std::uint64_t* blocks) {
  crypt_lanes<L, false>(keys, blocks);
}

template <std::size_t L>
void Des::decrypt_lanes(const Des* const* keys, std::uint64_t* blocks) {
  crypt_lanes<L, true>(keys, blocks);
}

template <std::size_t L>
void Des3::decrypt_lanes(const Des3* const* keys, std::uint64_t* blocks) {
  const Des* k[L];
  for (std::size_t c = 0; c < L; ++c) k[c] = &keys[c]->k3_;
  Des::decrypt_lanes<L>(k, blocks);
  for (std::size_t c = 0; c < L; ++c) k[c] = &keys[c]->k2_;
  Des::encrypt_lanes<L>(k, blocks);
  for (std::size_t c = 0; c < L; ++c) k[c] = &keys[c]->k1_;
  Des::decrypt_lanes<L>(k, blocks);
}

}  // namespace fbs::crypto
