// MD5 message digest (RFC 1321), implemented from the specification.
// This is the paper's default H and HMAC hash: flow keys are
// Kf = MD5(sfl | K_SD | S | D) and the header MAC is keyed MD5 (Sec 7.2).
#pragma once

#include <array>
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
  void process_block(const std::uint8_t* block);

  std::array<std::uint32_t, 4> state_{};
  std::array<std::uint8_t, kBlockSize> buffer_{};
  std::uint64_t total_len_ = 0;  // bytes fed so far
};

/// One-shot MD5.
util::Bytes md5(util::BytesView data);

}  // namespace fbs::crypto
