// The original bit-at-a-time DES: a faithful transcription of FIPS PUB 46
// that walks the permutation tables entry by entry. Roughly two orders of
// magnitude slower than the table-driven Des and kept ONLY as the oracle
// for its correctness tests (round-by-round intermediate values, Monte
// Carlo chains, the key schedule): the two implementations share the FIPS
// constant tables in des_tables.hpp but nothing else, so an error in the
// fused-table or nibble-table generation or the IP/FP swap networks cannot
// hide.
//
// Nothing on the datagram path may use this class.
#pragma once

#include <array>
#include <cstdint>

#include "crypto/des.hpp"
#include "util/bytes.hpp"

namespace fbs::crypto {

/// Per-round intermediate values (FIPS 46 notation): l[0]/r[0] are L0/R0
/// (after IP), l[i]/r[i] are Li/Ri after round i.
struct DesRoundTrace {
  std::array<std::uint32_t, 17> l{};
  std::array<std::uint32_t, 17> r{};
};

/// The table-driven Des's rounds, one at a time: the production IP/FP swap
/// networks and fused-table feistel (des_round.hpp) keyed by round_words()
/// of `des.round_keys()`, one round per step so each round's halves can be
/// recorded and compared with DesReference's. Returns the output block.
std::uint64_t des_round_trace(const Des& des, std::uint64_t block,
                              bool decrypt, DesRoundTrace& trace);

class DesReference {
 public:
  static constexpr std::size_t kBlockSize = 8;
  static constexpr std::size_t kKeySize = 8;

  explicit DesReference(util::BytesView key);

  std::uint64_t encrypt_block(std::uint64_t block) const;
  std::uint64_t decrypt_block(std::uint64_t block) const;

  /// Same intermediate-value trace as des_round_trace, computed from the
  /// standard's tables directly.
  std::uint64_t crypt_trace(std::uint64_t block, bool decrypt,
                            DesRoundTrace& trace) const;

  /// The 48-bit round keys K1..K16 (for FIPS key-schedule vectors).
  const std::array<std::uint64_t, 16>& subkeys() const { return subkeys_; }

 private:
  std::uint64_t crypt(std::uint64_t block, bool decrypt,
                      DesRoundTrace* trace) const;

  std::array<std::uint64_t, 16> subkeys_{};  // 48-bit round keys
};

}  // namespace fbs::crypto
