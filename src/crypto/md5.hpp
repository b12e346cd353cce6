// MD5 message digest (RFC 1321), implemented from the specification.
// This is the paper's default H and HMAC hash: flow keys are
// Kf = MD5(sfl | K_SD | S | D) and the header MAC is keyed MD5 (Sec 7.2).
//
// Two compression cores over one definition of the 64 RFC 1321 steps,
// written out straight-line with constant message indices and shifts
// (md5_steps.hpp). Md5::process_block runs them on 32-bit words. Md5x8 runs
// them on 8-lane SIMD words, eight independent compressions in lockstep;
// MacBatch (mac.hpp) schedules the messages of a receive burst onto its
// lanes, so one pass advances eight MACs by a block each.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "crypto/hash.hpp"

namespace fbs::crypto {

class Md5 final : public Hash {
 public:
  static constexpr std::size_t kDigestSize = 16;
  static constexpr std::size_t kBlockSize = 64;

  Md5() { reset(); }

  std::size_t digest_size() const override { return kDigestSize; }
  std::size_t block_size() const override { return kBlockSize; }
  void reset() override;
  void update(util::BytesView data) override;
  void finish_into(std::uint8_t* out) override;
  std::unique_ptr<Hash> clone() const override {
    return std::make_unique<Md5>(*this);
  }

 private:
  friend class MacBatch;  // starts its lanes from a saved state

  void process_block(const std::uint8_t* block);

  std::array<std::uint32_t, 4> state_{};
  std::array<std::uint8_t, kBlockSize> buffer_{};
  std::uint64_t total_len_ = 0;  // bytes fed so far
};

/// Eight MD5 compressions in lockstep, on the GCC/Clang vector_size(32)
/// idiom of des_bitslice.cpp: each MD5 word is one 8-lane word, so the 64
/// steps are evaluated once for eight messages. Lanes are independent; the
/// caller owns lengths, padding and refills (MacBatch does that).
struct Md5x8 {
  static constexpr std::size_t kLanes = 8;
  /// Chaining values, word-major: state[w][lane] is word w of one lane.
  using State = std::array<std::array<std::uint32_t, kLanes>, 4>;

  /// Compress one 64-byte block per lane into `state`. Every pointer must
  /// address 64 readable bytes.
  static void compress(State& state,
                       const std::array<const std::uint8_t*, kLanes>& blocks);
};

/// One-shot MD5.
util::Bytes md5(util::BytesView data);

}  // namespace fbs::crypto
