// DES modes of operation (FIPS PUB 81): ECB, CBC, CFB-64, OFB-64.
//
// Section 5.2 of the paper specifies how the per-datagram confounder drives
// the cipher: it is the IV in CBC/CFB/OFB modes, and in ECB mode it is
// XOR'ed with every plaintext block prior to encryption. The IP mapping
// (Section 7.2) duplicates the 32-bit confounder into a 64-bit quantity for
// DES; the caller does that expansion and passes the 64-bit IV here.
//
// The entry points are templated on the block cipher so the same mode code
// drives single DES and triple DES (any 64-bit-block cipher exposing
// kBlockSize and encrypt_block/decrypt_block over std::uint64_t works).
// Des and Des3 are explicitly instantiated in block_modes.cpp.
#pragma once

#include <cstdint>
#include <cstring>
#include <optional>
#include <span>

#include "crypto/des.hpp"
#include "util/bytes.hpp"

namespace fbs::crypto {

class Des3;

enum class CipherMode : std::uint8_t { kEcb, kCbc, kCfb, kOfb };

namespace detail {

/// Copy `data` into `out` and append PKCS#7 padding. One resize sizes the
/// buffer exactly; a reused `out` with enough capacity never reallocates.
inline void pkcs7_pad_into(util::BytesView data, util::Bytes& out) {
  constexpr std::size_t kBlock = Des::kBlockSize;
  const std::size_t pad = kBlock - data.size() % kBlock;  // 1..8
  out.resize(data.size() + pad);
  if (!data.empty()) std::memcpy(out.data(), data.data(), data.size());
  std::memset(out.data() + data.size(), static_cast<int>(pad), pad);
}

inline bool pkcs7_unpad_in_place(util::Bytes& data) {
  constexpr std::size_t kBlock = Des::kBlockSize;
  if (data.empty() || data.size() % kBlock != 0) return false;
  const std::uint8_t pad = data.back();
  if (pad == 0 || pad > kBlock || pad > data.size()) return false;
  for (std::size_t i = data.size() - pad; i < data.size(); ++i)
    if (data[i] != pad) return false;
  data.resize(data.size() - pad);
  return true;
}

}  // namespace detail

/// Most blocks the interleaved CBC kernels run at once: four CBC-encrypt
/// chains, or four blocks of one CBC-decrypt run. One block is a chain of
/// dependent table loads; four fill the out-of-order window
/// (EXPERIMENTS.md), and eight gained nothing more.
inline constexpr std::size_t kCbcLanes = 4;

/// The one scalar CBC-decrypt loop: `blocks` whole blocks from `ct` into
/// `pt`, chained from `chain` -- the IV at the start of a message, or the
/// ciphertext block before `ct` when a run starts mid-message (CBC decrypt
/// needs no earlier plaintext). The blocks are independent, so it decrypts
/// kCbcLanes at a time through Cipher::decrypt_lanes, a pair and then one
/// block for the rest, loading each step's ciphertext before storing any
/// of its plaintext. `pt` may equal `ct` but must not otherwise overlap
/// it. Runs decrypt_into's kCbc case and the batch planner's scalar plan
/// and spill; instantiated for Des and Des3 in cbc_chains.cpp, under the
/// kernel flags (crypto/CMakeLists.txt).
template <class Cipher>
void cbc_decrypt_blocks(const Cipher& cipher, std::uint64_t chain,
                        const std::uint8_t* ct, std::uint8_t* pt,
                        std::size_t blocks);

/// The one scalar CBC-encrypt loop: `blocks` whole blocks at `data`
/// (plaintext already padded) encrypted in place, chained from `iv`. Runs
/// encrypt_into's kCbc case and the last lane of cbc_encrypt_chains.
template <class Cipher>
inline void cbc_encrypt_blocks(const Cipher& cipher, std::uint64_t iv,
                               std::uint8_t* data, std::size_t blocks) {
  for (std::size_t b = 0; b < blocks; ++b) {
    iv = cipher.encrypt_block(Des::load_be64(data) ^ iv);
    Des::store_be64(iv, data);
    data += Des::kBlockSize;
  }
}

/// One message for cbc_encrypt_chains: `blocks` whole blocks at `data`
/// (plaintext already padded), encrypted in place under `*cipher` from
/// `iv`.
template <class Cipher>
struct CbcChain {
  const Cipher* cipher = nullptr;
  std::uint64_t iv = 0;
  std::uint8_t* data = nullptr;
  std::size_t blocks = 0;
};

namespace detail {

template <class Cipher>
struct CbcLane {
  const Cipher* cipher;
  std::uint64_t chain;
  std::uint8_t* data;
  std::size_t left;  // blocks still to encrypt
};

/// Run lanes [0, W) together until the shortest of them ends.
template <std::size_t W, class Cipher>
inline void cbc_encrypt_lanes(CbcLane<Cipher>* lanes) {
  const Cipher* keys[W];
  std::size_t steps = lanes[0].left;
  for (std::size_t c = 0; c < W; ++c) {
    keys[c] = lanes[c].cipher;
    steps = lanes[c].left < steps ? lanes[c].left : steps;
  }
  for (std::size_t s = 0; s < steps; ++s) {
    std::uint64_t blocks[W];
    for (std::size_t c = 0; c < W; ++c)
      blocks[c] = Des::load_be64(lanes[c].data) ^ lanes[c].chain;
    Cipher::template encrypt_lanes<W>(keys, blocks);
    for (std::size_t c = 0; c < W; ++c) {
      lanes[c].chain = blocks[c];
      Des::store_be64(blocks[c], lanes[c].data);
      lanes[c].data += Des::kBlockSize;
    }
  }
  for (std::size_t c = 0; c < W; ++c) lanes[c].left -= steps;
}

}  // namespace detail

/// CBC-encrypt independent messages together -- the send side's burst,
/// where every datagram is its own chain under its own confounder IV, in
/// any mix of keys and lengths. Up to kCbcLanes chains run interleaved
/// through Cipher::encrypt_lanes; a lane whose message ends takes the next
/// one. With fewer than four left, two run as a pair, and a last one runs
/// alone on cbc_encrypt_blocks. Bit-exact with encrypt_into's kCbc case on
/// each padded message. Instantiated for Des in cbc_chains.cpp, so it
/// compiles under the kernel flags.
template <class Cipher>
void cbc_encrypt_chains(std::span<const CbcChain<Cipher>> chains) {
  detail::CbcLane<Cipher> lanes[kCbcLanes];
  std::size_t live = 0;
  std::size_t next = 0;
  for (;;) {
    while (live < kCbcLanes && next < chains.size()) {
      const CbcChain<Cipher>& c = chains[next++];
      if (c.blocks > 0) lanes[live++] = {c.cipher, c.iv, c.data, c.blocks};
    }
    if (live < 2) break;
    if (live == kCbcLanes)
      detail::cbc_encrypt_lanes<kCbcLanes>(lanes);
    else
      detail::cbc_encrypt_lanes<2>(lanes);
    std::size_t kept = 0;
    for (std::size_t c = 0; c < live; ++c)
      if (lanes[c].left > 0) lanes[kept++] = lanes[c];
    live = kept;
  }
  if (live == 1)
    cbc_encrypt_blocks(*lanes[0].cipher, lanes[0].chain, lanes[0].data,
                       lanes[0].left);
}

/// Encrypt into a caller-owned buffer, reusing its capacity: `out` is
/// resized to the ciphertext length and allocates only if it has never held
/// a datagram this large. `plaintext` must not alias `out`. ECB and CBC
/// apply PKCS#7 padding (output grows by 1..8 bytes); CFB and OFB are
/// stream modes and preserve length.
template <class Cipher>
void encrypt_into(const Cipher& cipher, CipherMode mode, std::uint64_t iv,
                  util::BytesView plaintext, util::Bytes& out);

/// Inverse of encrypt_into; returns false on malformed input (and leaves
/// `out` unspecified). `ciphertext` must not alias `out`.
template <class Cipher>
bool decrypt_into(const Cipher& cipher, CipherMode mode, std::uint64_t iv,
                  util::BytesView ciphertext, util::Bytes& out);

/// Encrypt `plaintext` under the given mode with `iv` (the confounder).
template <class Cipher>
util::Bytes encrypt(const Cipher& cipher, CipherMode mode, std::uint64_t iv,
                    util::BytesView plaintext) {
  util::Bytes out;
  encrypt_into(cipher, mode, iv, plaintext, out);
  return out;
}

/// Inverse of encrypt. Returns nullopt on malformed input (bad length for
/// block modes, bad PKCS#7 padding).
template <class Cipher>
std::optional<util::Bytes> decrypt(const Cipher& cipher, CipherMode mode,
                                   std::uint64_t iv,
                                   util::BytesView ciphertext) {
  util::Bytes out;
  if (!decrypt_into(cipher, mode, iv, ciphertext, out)) return std::nullopt;
  return out;
}

extern template void encrypt_into<Des>(const Des&, CipherMode, std::uint64_t,
                                       util::BytesView, util::Bytes&);
extern template bool decrypt_into<Des>(const Des&, CipherMode, std::uint64_t,
                                       util::BytesView, util::Bytes&);
extern template void encrypt_into<Des3>(const Des3&, CipherMode,
                                        std::uint64_t, util::BytesView,
                                        util::Bytes&);
extern template void cbc_encrypt_chains<Des>(
    std::span<const CbcChain<Des>>);
extern template bool decrypt_into<Des3>(const Des3&, CipherMode,
                                        std::uint64_t, util::BytesView,
                                        util::Bytes&);

}  // namespace fbs::crypto
