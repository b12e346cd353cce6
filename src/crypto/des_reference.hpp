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

class DesReference {
 public:
  static constexpr std::size_t kBlockSize = 8;
  static constexpr std::size_t kKeySize = 8;

  explicit DesReference(util::BytesView key);

  std::uint64_t encrypt_block(std::uint64_t block) const;
  std::uint64_t decrypt_block(std::uint64_t block) const;

  /// Same intermediate-value trace as Des::crypt_trace, computed from the
  /// standard's tables directly.
  std::uint64_t crypt_trace(std::uint64_t block, bool decrypt,
                            Des::RoundTrace& trace) const;

  /// The 48-bit round keys K1..K16 (for FIPS key-schedule vectors).
  const std::array<std::uint64_t, 16>& subkeys() const { return subkeys_; }

 private:
  std::uint64_t crypt(std::uint64_t block, bool decrypt,
                      Des::RoundTrace* trace) const;

  std::array<std::uint64_t, 16> subkeys_{};  // 48-bit round keys
};

}  // namespace fbs::crypto
