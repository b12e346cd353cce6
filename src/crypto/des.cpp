#include "crypto/des.hpp"

#include <cassert>

#include "crypto/des_tables.hpp"

namespace fbs::crypto {

namespace {

/// Fused SP tables: kSp[i][v] is the P permutation applied to S-box i's
/// output for the 6-bit E-expanded-and-keyed input v, already positioned in
/// the 32-bit word. One lookup replaces a 6-bit S-box row/column decode plus
/// a 32-entry P permutation walk.
constexpr std::array<std::array<std::uint32_t, 64>, 8> build_sp_tables() {
  std::array<std::array<std::uint32_t, 64>, 8> sp{};
  for (int box = 0; box < 8; ++box) {
    for (int v = 0; v < 64; ++v) {
      // Row = outer two bits, column = inner four (FIPS b1..b6, MSB first).
      const int row = ((v & 0x20) >> 4) | (v & 1);
      const int col = (v >> 1) & 0xF;
      const std::uint32_t s = des_tables::kSbox[box][row * 16 + col];
      // Place the 4-bit output at FIPS bits 4*box+1 .. 4*box+4, then P.
      const std::uint64_t positioned = static_cast<std::uint64_t>(s)
                                       << (28 - 4 * box);
      sp[box][v] = static_cast<std::uint32_t>(
          des_tables::permute(positioned, des_tables::kPbox, 32));
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

/// A 48-bit round key's eight 6-bit chunks spread one per byte, chunk 0
/// (FIPS round-key bits 1-6) in the top byte: three halving steps.
constexpr std::uint64_t spread_chunks(std::uint64_t k) {
  std::uint64_t x = (k & 0xFFFFFFull) | (k & 0xFFFFFF000000ull) << 8;
  x = (x & 0x00000FFF00000FFFull) | (x & 0x00FFF00000FFF000ull) << 4;
  return (x & 0x003F003F003F003Full) | (x & 0x0FC00FC00FC00FC0ull) << 2;
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

/// The cipher function f(R, K). Rotating R right by one bit turns the E
/// expansion's overlapping 6-bit groups into plain shift/mask extractions:
/// group i of E(R) is bits [4i..4i+5] of the cyclic sequence
/// R32 R1 R2 ... R31, which is exactly `u` read MSB-first.
inline std::uint32_t feistel(std::uint32_t r, const std::uint8_t* k) {
  const std::uint32_t u = (r >> 1) | (r << 31);
  return kSp[0][((u >> 26) ^ k[0]) & 0x3F] |
         kSp[1][((u >> 22) ^ k[1]) & 0x3F] |
         kSp[2][((u >> 18) ^ k[2]) & 0x3F] |
         kSp[3][((u >> 14) ^ k[3]) & 0x3F] |
         kSp[4][((u >> 10) ^ k[4]) & 0x3F] |
         kSp[5][((u >> 6) ^ k[5]) & 0x3F] |
         kSp[6][((u >> 2) ^ k[6]) & 0x3F] |
         kSp[7][((((u & 0xF) << 2) | (u >> 30)) ^ k[7]) & 0x3F];
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
    store_be64(spread_chunks(round_keys_[round]), subkeys_[round].data());
}

std::uint64_t Des::crypt(std::uint64_t block, bool decrypt) const {
  std::uint32_t l = static_cast<std::uint32_t>(block >> 32);
  std::uint32_t r = static_cast<std::uint32_t>(block);
  initial_permutation(l, r);
  if (decrypt) {
    for (int round = 15; round >= 0; round -= 2) {
      l ^= feistel(r, subkeys_[round].data());
      r ^= feistel(l, subkeys_[round - 1].data());
    }
  } else {
    for (int round = 0; round < 16; round += 2) {
      l ^= feistel(r, subkeys_[round].data());
      r ^= feistel(l, subkeys_[round + 1].data());
    }
  }
  // The unrolled pairs absorb the per-round swap; preoutput is R16 L16.
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
  for (int round = 0; round < 16; ++round) {
    const auto& k = subkeys_[decrypt ? 15 - round : round];
    const std::uint32_t next = l ^ feistel(r, k.data());
    l = r;
    r = next;
    trace.l[round + 1] = l;
    trace.r[round + 1] = r;
  }
  std::uint32_t outl = r, outr = l;  // preoutput swap
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
