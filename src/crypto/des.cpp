#include "crypto/des.hpp"

#include <bit>
#include <cassert>

#include "crypto/des_round.hpp"
#include "crypto/des_tables.hpp"

namespace fbs::crypto {

using namespace des_round;

namespace {

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

}  // namespace fbs::crypto
