// SHA-1 (the FIPS 180 "Secure Hash Standard" the paper cites as SHS),
// offered as an alternative H / HMAC hash to MD5.
#pragma once

#include <array>
#include <cstdint>

#include "crypto/hash.hpp"

namespace fbs::crypto {

class Sha1 final : public Hash {
 public:
  static constexpr std::size_t kDigestSize = 20;
  static constexpr std::size_t kBlockSize = 64;

  Sha1() { reset(); }

  std::size_t digest_size() const override { return kDigestSize; }
  std::size_t block_size() const override { return kBlockSize; }
  void reset() override;
  void update(util::BytesView data) override;
  void finish_into(std::uint8_t* out) override;
  std::unique_ptr<Hash> clone() const override {
    return std::make_unique<Sha1>(*this);
  }

 private:
  void process_block(const std::uint8_t* block);

  std::array<std::uint32_t, 5> state_{};
  std::array<std::uint8_t, kBlockSize> buffer_{};
  std::uint64_t total_len_ = 0;
};

/// One-shot SHA-1.
util::Bytes sha1(util::BytesView data);

}  // namespace fbs::crypto
