// DES block cipher (FIPS PUB 46). The paper's IP mapping encrypts datagram
// bodies with DES and uses the 32-bit confounder (duplicated to 64 bits) as
// the IV (Section 7.2). Modes of operation (FIPS 81) live in block_modes.hpp.
//
// This is the classic table-driven implementation in a two-word round
// layout. IP and FP are O(log n) bit-swap networks instead of 64-entry
// permutation walks. Between them both halves are kept rotated right by one
// bit, which lines the E expansion up with the bytes of a word: S-boxes 0, 2,
// 4 and 6 take their 6-bit inputs from bits 26/18/10/2 of the rotated half,
// and S-boxes 1, 3, 5 and 7 from the same bits of it rotated left by four.
// A round therefore XORs two 32-bit round-key words (DesRoundWords) into
// those two values and does eight byte-indexed lookups into tables that fuse
// each S-box with P and with the one-bit rotation (8 x 256 words, built at
// compile time from the FIPS tables in des_tables.hpp). No per-S-box shift,
// mask or key byte is left in the round.
//
// The key schedule is table-driven too: PC-1 and PC-2 are applied a nibble
// at a time through constexpr tables (~4 KB), so building a Des -- once per
// flow key, on every flow-key cache miss -- costs a few hundred table
// lookups instead of a ~800-step bit walk. The 16 48-bit round keys it
// produces are kept for the bitsliced batch engine (des_bitslice.hpp), which
// keys its lanes straight from a Des, and in the two-word form the round
// uses; there is one schedule per key. The bit-at-a-time transcription of
// the standard survives as the test oracle DesReference
// (tests/support/des_reference.hpp) and the two are tested bit-exact round
// by round. The round itself lives in des_round.hpp, which the interleaved
// CBC kernels share.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <cstring>

#include "util/bytes.hpp"

namespace fbs::crypto {

/// The 16 48-bit round keys K1..K16 of one DES key, bit 47 = the standard's
/// round-key bit 1.
using DesRoundKeys = std::array<std::uint64_t, 16>;

/// One round key in the layout the table-driven round XORs in (des.cpp):
/// the even S-boxes' 6-bit chunks in word 0, the odd ones in word 1.
using DesRoundWords = std::array<std::uint32_t, 2>;

class Des {
 public:
  static constexpr std::size_t kBlockSize = 8;
  static constexpr std::size_t kKeySize = 8;  // 64 bits incl. parity

  /// Key is 8 bytes; the 8 parity bits are ignored, per the standard.
  explicit Des(util::BytesView key);

  /// The table-driven PC-1/PC-2 schedule for a key loaded big-endian.
  static DesRoundKeys key_schedule(std::uint64_t k64);

  /// This key's round keys, for keying the bitsliced engine's lanes.
  const DesRoundKeys& round_keys() const { return round_keys_; }

  /// Encrypt/decrypt exactly one 8-byte block, in-place variants included.
  std::uint64_t encrypt_block(std::uint64_t block) const;
  std::uint64_t decrypt_block(std::uint64_t block) const;
  void encrypt_block(const std::uint8_t* in, std::uint8_t* out) const;
  void decrypt_block(const std::uint8_t* in, std::uint8_t* out) const;

  /// Encrypt (decrypt) blocks[c] under *keys[c] for each of L lanes with
  /// the lanes' rounds interleaved, so their table loads overlap where one
  /// block's are a single dependent chain. Bit-exact with encrypt_block
  /// (decrypt_block). Defined in des_round.hpp, for the kernel file that
  /// runs the interleaved CBC chains (block_modes.hpp, cbc_chains.cpp).
  template <std::size_t L>
  static void encrypt_lanes(const Des* const* keys, std::uint64_t* blocks);
  template <std::size_t L>
  static void decrypt_lanes(const Des* const* keys, std::uint64_t* blocks);

  /// Per-round intermediate values (FIPS 46 notation): l[0]/r[0] are L0/R0
  /// (after IP), l[i]/r[i] are Li/Ri after round i. For tests comparing
  /// this implementation against DesReference round by round.
  struct RoundTrace {
    std::array<std::uint32_t, 17> l{};
    std::array<std::uint32_t, 17> r{};
  };
  std::uint64_t crypt_trace(std::uint64_t block, bool decrypt,
                            RoundTrace& trace) const;

  /// A block as the cores take it: eight bytes, big-endian. Inline, so a
  /// block loop pays no call per block.
  static std::uint64_t load_be64(const std::uint8_t* p) {
    std::uint64_t v;
    std::memcpy(&v, p, sizeof v);
    if constexpr (std::endian::native == std::endian::little)
      v = __builtin_bswap64(v);
    return v;
  }
  static void store_be64(std::uint64_t v, std::uint8_t* p) {
    if constexpr (std::endian::native == std::endian::little)
      v = __builtin_bswap64(v);
    std::memcpy(p, &v, sizeof v);
  }

 private:
  std::uint64_t crypt(std::uint64_t block, bool decrypt) const;
  /// The body of encrypt_lanes and decrypt_lanes (des_round.hpp).
  template <std::size_t L, bool kDecrypt>
  static void crypt_lanes(const Des* const* keys, std::uint64_t* blocks);

  DesRoundKeys round_keys_{};
  /// The same round keys as two 32-bit words each, for the round function.
  std::array<DesRoundWords, 16> round_words_{};
};

}  // namespace fbs::crypto
