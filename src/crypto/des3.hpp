// Triple DES, EDE with three independent keys (keying option 1):
//   C = E_K3(D_K2(E_K1(P)))    D = D_K1(E_K2(D_K3(C)))
// Built on three table-driven Des instances, so one Des3 object costs three
// key schedules at construction and three block passes per block -- the
// expected ~3x of single DES, which is exactly what the fig8 per-suite
// curves are meant to show. With K1 == K2 == K3 it degenerates to single
// DES (EDE's backward-compatibility property; tested).
//
// There is deliberately no bitsliced 3DES: the batch scheduler routes
// kDes3Ede flows to this scalar core, keeping the bitslice engine single
// -algorithm (see crypto/batch.hpp).
#pragma once

#include <cstdint>

#include "crypto/des.hpp"
#include "util/bytes.hpp"

namespace fbs::crypto {

class Des3 {
 public:
  static constexpr std::size_t kBlockSize = 8;
  static constexpr std::size_t kKeySize = 24;  // K1 | K2 | K3

  /// Key is 24 bytes; each 8-byte third has its parity bits ignored.
  explicit Des3(util::BytesView key);

  std::uint64_t encrypt_block(std::uint64_t block) const;
  std::uint64_t decrypt_block(std::uint64_t block) const;
  void encrypt_block(const std::uint8_t* in, std::uint8_t* out) const;
  void decrypt_block(const std::uint8_t* in, std::uint8_t* out) const;

  /// decrypt_block on L blocks at once, block c under *keys[c], each of
  /// the three passes run on Des's interleaved lanes. Defined in
  /// des_round.hpp, for the interleaved CBC-decrypt kernel (cbc_chains.cpp).
  template <std::size_t L>
  static void decrypt_lanes(const Des3* const* keys, std::uint64_t* blocks);

 private:
  Des k1_;
  Des k2_;
  Des k3_;
};

}  // namespace fbs::crypto
