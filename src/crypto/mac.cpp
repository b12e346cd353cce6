#include "crypto/mac.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <cstring>

namespace fbs::crypto {

namespace {

/// Large enough for any digest we produce (MD5 = 16, SHA-1 = 20).
constexpr std::size_t kMaxDigestSize = 64;
/// Both hashes absorb 64-byte blocks.
constexpr std::size_t kMaxBlockSize = 64;

/// A freshly reset state of `hash`'s concrete type.
HashState state_of(const Hash& hash) {
  if (dynamic_cast<const Md5*>(&hash)) return Md5{};
  assert(dynamic_cast<const Sha1*>(&hash));
  return Sha1{};
}

std::size_t digest_size(const HashState& h) {
  return std::visit([](const auto& s) { return s.digest_size(); }, h);
}

void absorb(HashState& h, util::BytesView data) {
  std::visit([&](auto& s) { s.update(data); }, h);
}

void finish_state(HashState& h, std::uint8_t* out) {
  std::visit([&](auto& s) { s.finish_into(out); }, h);
}

}  // namespace

void MacContext::begin() {
  if (kind_ != Kind::kNull) work_ = start_;
}

void MacContext::update(util::BytesView chunk) {
  if (kind_ != Kind::kNull) absorb(work_, chunk);
}

void MacContext::finish_into(std::uint8_t* out) {
  switch (kind_) {
    case Kind::kNull:
      std::memset(out, 0, size_);
      return;
    case Kind::kKeyedPrefix:
      finish_state(work_, out);
      return;
    case Kind::kHmac: {
      std::uint8_t inner_digest[kMaxDigestSize];
      finish_state(work_, inner_digest);
      work_ = outer_;
      absorb(work_, {inner_digest, size_});
      finish_state(work_, out);
      return;
    }
  }
}

util::Bytes Mac::compute(util::BytesView key,
                         std::initializer_list<util::BytesView> chunks) const {
  MacContext ctx = make_context(key);
  ctx.begin();
  for (const util::BytesView c : chunks) ctx.update(c);
  return ctx.finish();
}

KeyedPrefixMac::KeyedPrefixMac(std::unique_ptr<Hash> hash)
    : hash_(state_of(*hash)) {}

std::size_t KeyedPrefixMac::mac_size() const { return digest_size(hash_); }

MacContext KeyedPrefixMac::make_context(util::BytesView key) const {
  // The key is absorbed into start_ once; each message restores that state
  // into work_ and streams from there.
  MacContext ctx;
  ctx.kind_ = MacContext::Kind::kKeyedPrefix;
  ctx.size_ = digest_size(hash_);
  ctx.start_ = hash_;
  absorb(ctx.start_, key);
  return ctx;
}

HmacMac::HmacMac(std::unique_ptr<Hash> hash) : hash_(state_of(*hash)) {}

std::size_t HmacMac::mac_size() const { return digest_size(hash_); }

MacContext HmacMac::make_context(util::BytesView key) const {
  // RFC 2104: hash overlong keys and absorb the ipad/opad blocks exactly
  // once, here; per message only the two precomputed states are restored.
  MacContext ctx;
  ctx.kind_ = MacContext::Kind::kHmac;
  ctx.size_ = digest_size(hash_);
  const std::size_t block =
      std::visit([](const auto& s) { return s.block_size(); }, hash_);
  assert(block <= kMaxBlockSize);
  std::array<std::uint8_t, kMaxBlockSize> k{};
  if (key.size() > block) {
    ctx.work_ = hash_;
    absorb(ctx.work_, key);
    finish_state(ctx.work_, k.data());
  } else {
    std::copy(key.begin(), key.end(), k.begin());
  }

  std::array<std::uint8_t, kMaxBlockSize> pad;
  for (std::size_t i = 0; i < block; ++i) pad[i] = k[i] ^ 0x36;
  ctx.start_ = hash_;
  absorb(ctx.start_, {pad.data(), block});
  for (std::size_t i = 0; i < block; ++i) pad[i] = k[i] ^ 0x5c;
  ctx.outer_ = hash_;
  absorb(ctx.outer_, {pad.data(), block});
  return ctx;
}

MacContext NullMac::make_context(util::BytesView) const {
  MacContext ctx;
  ctx.size_ = size_;
  return ctx;
}

util::Bytes hmac(Hash& hash, util::BytesView key, util::BytesView message) {
  HmacMac mac(hash.clone());
  return mac.compute(key, {message});
}

util::Bytes hmac_md5(util::BytesView key, util::BytesView message) {
  Md5 h;
  return hmac(h, key, message);
}

util::Bytes hmac_sha1(util::BytesView key, util::BytesView message) {
  Sha1 h;
  return hmac(h, key, message);
}

}  // namespace fbs::crypto
