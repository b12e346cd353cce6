#include "baselines/perdatagram.hpp"

#include "baselines/hostpair.hpp"
#include "crypto/block_modes.hpp"
#include "crypto/des.hpp"
#include "crypto/mac.hpp"
#include "crypto/md5.hpp"

namespace fbs::baselines {

namespace {
constexpr std::size_t kDatagramKeySize = 8;  // a DES key
}

std::optional<util::Bytes> PerDatagramKeyProtocol::protect(
    const core::Datagram& d) {
  const auto master = keys_.master_key(d.destination);
  if (!master) return std::nullopt;

  // Fresh cryptographically random per-datagram key (the expensive step).
  const util::Bytes datagram_key = key_rng_.next_bytes(kDatagramKeySize);

  // The master key only ever encrypts the datagram key.
  const crypto::Des master_des = master_key_des(*master);
  const util::Bytes wrapped = crypto::encrypt(
      master_des, crypto::CipherMode::kEcb, 0, datagram_key);

  const crypto::Des data_des(datagram_key);
  const std::uint64_t iv = iv_gen_.next_u64();
  crypto::KeyedPrefixMac mac(std::make_unique<crypto::Md5>());
  util::ByteWriter iv_bytes(8);
  iv_bytes.u64(iv);
  const util::Bytes tag =
      mac.compute(datagram_key, {iv_bytes.view(), d.body});

  util::ByteWriter w;
  w.bytes(wrapped);  // 16 bytes (8-byte key + PKCS#7 pad block)
  w.u64(iv);
  w.bytes(tag);
  w.bytes(crypto::encrypt(data_des, crypto::CipherMode::kCbc, iv, d.body));
  return w.take();
}

std::optional<util::Bytes> PerDatagramKeyProtocol::unprotect(
    const core::Principal& source, util::BytesView wire) {
  util::ByteReader r(wire);
  const auto wrapped = r.bytes(16);
  const auto iv = r.u64();
  const auto tag = r.bytes(crypto::Md5::kDigestSize);
  if (!wrapped || !iv || !tag) return std::nullopt;

  const auto master = keys_.master_key(source);
  if (!master) return std::nullopt;
  const crypto::Des master_des = master_key_des(*master);
  const auto datagram_key =
      crypto::decrypt(master_des, crypto::CipherMode::kEcb, 0, *wrapped);
  if (!datagram_key || datagram_key->size() != kDatagramKeySize)
    return std::nullopt;

  const crypto::Des data_des(*datagram_key);
  auto body = crypto::decrypt(data_des, crypto::CipherMode::kCbc, *iv,
                              r.rest());
  if (!body) return std::nullopt;

  crypto::KeyedPrefixMac mac(std::make_unique<crypto::Md5>());
  util::ByteWriter iv_bytes(8);
  iv_bytes.u64(*iv);
  const util::Bytes expected =
      mac.compute(*datagram_key, {iv_bytes.view(), *body});
  if (!util::ct_equal(expected, *tag)) return std::nullopt;
  return body;
}

}  // namespace fbs::baselines
