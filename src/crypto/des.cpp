#include "crypto/des.hpp"

#include <bit>
#include <cassert>

#include "crypto/des_tables.hpp"

namespace fbs::crypto {

namespace {

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

constexpr auto kSp = build_sp_tables();

/// Nibble tables for the key schedule: kPc1Nibble[n][v] is PC-1 applied to
/// a key whose only set bits are value v in nibble n (n = 0 holds FIPS bits
/// 1-4), giving its share of the 56-bit C|D; kPc2Nibble[n][v] is likewise
/// nibble n's share of a 48-bit round key from C|D. Each permutation is then
/// an OR of one lookup per nibble. 16x16 + 14x16 words, ~3.8 KB.
constexpr std::array<std::array<std::uint64_t, 16>, 16> build_pc1_nibbles() {
  std::array<std::array<std::uint64_t, 16>, 16> t{};
  for (unsigned n = 0; n < 16; ++n)
    for (std::uint64_t v = 0; v < 16; ++v)
      t[n][v] = des_tables::permute(v << (60 - 4 * n), des_tables::kPc1, 64);
  return t;
}

constexpr std::array<std::array<std::uint64_t, 16>, 14> build_pc2_nibbles() {
  std::array<std::array<std::uint64_t, 16>, 14> t{};
  for (unsigned n = 0; n < 14; ++n)
    for (std::uint64_t v = 0; v < 16; ++v)
      t[n][v] = des_tables::permute(v << (52 - 4 * n), des_tables::kPc2, 56);
  return t;
}

constexpr auto kPc1Nibble = build_pc1_nibbles();
constexpr auto kPc2Nibble = build_pc2_nibbles();

/// A 48-bit round key as the two words the round XORs in: chunk i (FIPS
/// round-key bits 6i+1 .. 6i+6, S-box i's share) lands at bit 26 - 8(i/2)
/// of word i % 2, where S-box i's input sits in R or rotl(R, 4).
constexpr DesRoundWords round_words(std::uint64_t k) {
  DesRoundWords w{};
  for (unsigned i = 0; i < 8; ++i) {
    const auto chunk = static_cast<std::uint32_t>(k >> (42 - 6 * i)) & 0x3F;
    w[i % 2] |= chunk << (26 - 8 * (i / 2));
  }
  return w;
}

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

}  // namespace

DesRoundKeys Des::key_schedule(std::uint64_t k64) {
  std::uint64_t pc1 = 0;
  for (unsigned n = 0; n < 16; ++n)
    pc1 |= kPc1Nibble[n][(k64 >> (60 - 4 * n)) & 0xF];
  std::uint32_t c = static_cast<std::uint32_t>(pc1 >> 28);
  std::uint32_t d = static_cast<std::uint32_t>(pc1 & 0x0FFFFFFFull);
  DesRoundKeys keys;
  for (std::size_t round = 0; round < 16; ++round) {
    c = des_tables::rotl28(c, des_tables::kShifts[round]);
    d = des_tables::rotl28(d, des_tables::kShifts[round]);
    const std::uint64_t cd = static_cast<std::uint64_t>(c) << 28 | d;
    std::uint64_t k = 0;
    for (unsigned n = 0; n < 14; ++n)
      k |= kPc2Nibble[n][(cd >> (52 - 4 * n)) & 0xF];
    keys[round] = k;
  }
  return keys;
}

Des::Des(util::BytesView key) {
  assert(key.size() == kKeySize);
  round_keys_ = key_schedule(load_be64(key.data()));
  for (std::size_t round = 0; round < 16; ++round)
    round_words_[round] = round_words(round_keys_[round]);
}

std::uint64_t Des::crypt(std::uint64_t block, bool decrypt) const {
  std::uint32_t l = static_cast<std::uint32_t>(block >> 32);
  std::uint32_t r = static_cast<std::uint32_t>(block);
  initial_permutation(l, r);
  l = std::rotr(l, 1);
  r = std::rotr(r, 1);
  if (decrypt) {
    for (int round = 15; round >= 0; round -= 2) {
      l ^= feistel(r, round_words_[round]);
      r ^= feistel(l, round_words_[round - 1]);
    }
  } else {
    for (int round = 0; round < 16; round += 2) {
      l ^= feistel(r, round_words_[round]);
      r ^= feistel(l, round_words_[round + 1]);
    }
  }
  // The unrolled pairs absorb the per-round swap; preoutput is R16 L16.
  l = std::rotl(l, 1);
  r = std::rotl(r, 1);
  final_permutation(r, l);
  return static_cast<std::uint64_t>(r) << 32 | l;
}

std::uint64_t Des::crypt_trace(std::uint64_t block, bool decrypt,
                               RoundTrace& trace) const {
  std::uint32_t l = static_cast<std::uint32_t>(block >> 32);
  std::uint32_t r = static_cast<std::uint32_t>(block);
  initial_permutation(l, r);
  trace.l[0] = l;
  trace.r[0] = r;
  l = std::rotr(l, 1);
  r = std::rotr(r, 1);
  for (int round = 0; round < 16; ++round) {
    const std::uint32_t next =
        l ^ feistel(r, round_words_[decrypt ? 15 - round : round]);
    l = r;
    r = next;
    trace.l[round + 1] = std::rotl(l, 1);
    trace.r[round + 1] = std::rotl(r, 1);
  }
  std::uint32_t outl = std::rotl(r, 1), outr = std::rotl(l, 1);  // swap
  final_permutation(outl, outr);
  return static_cast<std::uint64_t>(outl) << 32 | outr;
}

std::uint64_t Des::encrypt_block(std::uint64_t block) const {
  return crypt(block, false);
}

std::uint64_t Des::decrypt_block(std::uint64_t block) const {
  return crypt(block, true);
}

void Des::encrypt_block(const std::uint8_t* in, std::uint8_t* out) const {
  store_be64(encrypt_block(load_be64(in)), out);
}

void Des::decrypt_block(const std::uint8_t* in, std::uint8_t* out) const {
  store_be64(decrypt_block(load_be64(in)), out);
}

std::uint64_t Des::load_be64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v = v << 8 | p[i];
  return v;
}

void Des::store_be64(std::uint64_t v, std::uint8_t* p) {
  for (int i = 7; i >= 0; --i) {
    p[i] = static_cast<std::uint8_t>(v);
    v >>= 8;
  }
}

}  // namespace fbs::crypto
