// Common interface for the one-way hash functions the paper names as
// candidates for H (flow-key derivation) and HMAC (the header MAC):
// MD5 (RFC 1321) and SHS/SHA-1 (FIPS 180). See Section 5.2.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>

#include "util/bytes.hpp"

namespace fbs::crypto {

/// Streaming hash context. Implementations are value-semantic enough to be
/// reset and reused, and copyable: MAC contexts hold MD5/SHA-1 states by
/// value (crypto::HashState) to keep their precomputed pads.
class Hash {
 public:
  virtual ~Hash() = default;

  virtual std::size_t digest_size() const = 0;
  virtual std::size_t block_size() const = 0;
  virtual void reset() = 0;
  virtual void update(util::BytesView data) = 0;
  /// Finish into a caller-provided buffer of digest_size() bytes without
  /// allocating; the context must be reset() before reuse.
  virtual void finish_into(std::uint8_t* out) = 0;
  virtual std::unique_ptr<Hash> clone() const = 0;

  /// Finish and return the digest (allocating convenience wrapper).
  util::Bytes finish() {
    util::Bytes digest(digest_size());
    finish_into(digest.data());
    return digest;
  }
};

}  // namespace fbs::crypto
