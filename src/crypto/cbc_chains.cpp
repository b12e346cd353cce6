// The interleaved CBC kernels (block_modes.hpp): cbc_encrypt_chains for
// single DES and cbc_decrypt_blocks for single and triple DES, compiled
// under the kernel flags (crypto/CMakeLists.txt) with the round they
// interleave (des_round.hpp) inlined.
#include "crypto/block_modes.hpp"
#include "crypto/des_round.hpp"

namespace fbs::crypto {

namespace {

/// Decrypt the next W blocks at `ct` into `pt` and advance all three. Every
/// ciphertext block is loaded before any plaintext is stored, so `pt` may
/// equal `ct`.
template <std::size_t W, class Cipher>
inline void cbc_decrypt_step(const Cipher& cipher, std::uint64_t& chain,
                             const std::uint8_t*& ct, std::uint8_t*& pt) {
  const Cipher* keys[W];
  std::uint64_t c[W];
  std::uint64_t x[W];
  for (std::size_t i = 0; i < W; ++i) {
    keys[i] = &cipher;
    c[i] = x[i] = Des::load_be64(ct + Des::kBlockSize * i);
  }
  Cipher::template decrypt_lanes<W>(keys, x);
  for (std::size_t i = 0; i < W; ++i) {
    Des::store_be64(x[i] ^ chain, pt + Des::kBlockSize * i);
    chain = c[i];
  }
  ct += Des::kBlockSize * W;
  pt += Des::kBlockSize * W;
}

}  // namespace

template <class Cipher>
void cbc_decrypt_blocks(const Cipher& cipher, std::uint64_t chain,
                        const std::uint8_t* ct, std::uint8_t* pt,
                        std::size_t blocks) {
  for (; blocks >= kCbcLanes; blocks -= kCbcLanes)
    cbc_decrypt_step<kCbcLanes>(cipher, chain, ct, pt);
  if (blocks >= 2) {
    cbc_decrypt_step<2>(cipher, chain, ct, pt);
    blocks -= 2;
  }
  if (blocks == 1) cbc_decrypt_step<1>(cipher, chain, ct, pt);
}

template void cbc_encrypt_chains<Des>(std::span<const CbcChain<Des>>);
template void cbc_decrypt_blocks<Des>(const Des&, std::uint64_t,
                                      const std::uint8_t*, std::uint8_t*,
                                      std::size_t);
template void cbc_decrypt_blocks<Des3>(const Des3&, std::uint64_t,
                                       const std::uint8_t*, std::uint8_t*,
                                       std::size_t);

}  // namespace fbs::crypto
