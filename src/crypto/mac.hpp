// Message authentication codes.
//
// The paper's header MAC (Section 5.2) is the keyed-prefix construction
//     HMAC(Kf | confounder | timestamp | payload)
// with "HMAC" meaning "some one-way cryptographic hash function" -- i.e.
// keyed MD5 in the 1997 implementation (Section 7.2). We provide that
// construction (KeyedPrefixMac) plus the modern RFC 2104 HMAC as an
// alternative algorithm selectable through the header's algorithm field.
#pragma once

#include <initializer_list>
#include <memory>
#include <variant>

#include "crypto/hash.hpp"
#include "crypto/md5.hpp"
#include "crypto/sha1.hpp"
#include "util/bytes.hpp"

namespace fbs::crypto {

/// A hash state held by value: one of the library's two hashes. MAC
/// contexts keep their precomputed states in these.
using HashState = std::variant<Md5, Sha1>;

/// A MAC bound to one key: the streaming interface the datagram fast path
/// uses. Construction does the per-key work once (hashing overlong keys,
/// absorbing the HMAC pads); after that, each message costs one
/// begin()/update().../finish_into() cycle. Cached per flow alongside the
/// Des key schedule. The hash states live inline, so building, moving and
/// destroying a context never touches the heap -- a flow-key miss builds
/// one. Default-constructed, it is the null MAC with an empty tag.
class MacContext {
 public:
  std::size_t mac_size() const { return size_; }
  /// Start a new message; discards any partial state.
  void begin();
  void update(util::BytesView chunk);
  /// Finish into a caller-provided buffer of mac_size() bytes.
  void finish_into(std::uint8_t* out);

  /// Allocating convenience wrapper.
  util::Bytes finish() {
    util::Bytes tag(mac_size());
    finish_into(tag.data());
    return tag;
  }

 private:
  friend class KeyedPrefixMac;
  friend class HmacMac;
  friend class NullMac;
  enum class Kind : std::uint8_t { kNull, kKeyedPrefix, kHmac };

  Kind kind_ = Kind::kNull;
  std::size_t size_ = 0;
  HashState start_;  // keyed prefix: H after the key; HMAC: after K ^ ipad
  HashState outer_;  // HMAC only: H after K ^ opad
  HashState work_;
};

/// Common interface: a MAC over (key, message chunks).
class Mac {
 public:
  virtual ~Mac() = default;
  virtual std::size_t mac_size() const = 0;
  /// Bind this MAC to `key`, doing all per-key precomputation up front.
  virtual MacContext make_context(util::BytesView key) const = 0;

  /// Compute the tag over the concatenation of `chunks`.
  util::Bytes compute(util::BytesView key,
                      std::initializer_list<util::BytesView> chunks) const;
};

/// The paper's construction: tag = H(key | chunk_0 | chunk_1 | ...).
/// Vulnerable to length extension in general; acceptable here because the
/// protocol never exposes intermediate hashes and the message layout is
/// fixed -- but see HmacMac for the robust choice. `hash` must be an Md5 or
/// a Sha1, the hashes a MacContext can hold.
class KeyedPrefixMac final : public Mac {
 public:
  explicit KeyedPrefixMac(std::unique_ptr<Hash> hash);

  std::size_t mac_size() const override;
  MacContext make_context(util::BytesView key) const override;

 private:
  HashState hash_;
};

/// RFC 2104 HMAC over MD5 or SHA-1.
class HmacMac final : public Mac {
 public:
  explicit HmacMac(std::unique_ptr<Hash> hash);

  std::size_t mac_size() const override;
  MacContext make_context(util::BytesView key) const override;

 private:
  HashState hash_;
};

/// The "nullified" MAC of the paper's FBS NOP measurement configuration
/// (Section 7.3): returns immediately with a constant tag. Exists so the
/// Figure 8 bench can separate protocol overhead from cryptography cost.
class NullMac final : public Mac {
 public:
  explicit NullMac(std::size_t size = 16) : size_(size) {}
  std::size_t mac_size() const override { return size_; }
  MacContext make_context(util::BytesView key) const override;

 private:
  std::size_t size_;
};

/// Convenience one-shots.
util::Bytes hmac(Hash& hash, util::BytesView key, util::BytesView message);
util::Bytes hmac_md5(util::BytesView key, util::BytesView message);
util::Bytes hmac_sha1(util::BytesView key, util::BytesView message);

}  // namespace fbs::crypto
