#include "baselines/hostpair.hpp"

#include "crypto/block_modes.hpp"
#include "crypto/md5.hpp"

namespace fbs::baselines {

crypto::Des master_key_des(util::BytesView master) {
  crypto::Md5 h;
  h.update(master);
  std::uint8_t digest[crypto::Md5::kDigestSize];
  h.finish_into(digest);
  return crypto::Des(util::BytesView(digest).first(crypto::Des::kKeySize));
}

std::optional<util::Bytes> HostPairProtocol::protect(const core::Datagram& d) {
  const auto master = keys_.master_key(d.destination);
  if (!master) return std::nullopt;
  const crypto::Des des = master_key_des(*master);
  const std::uint64_t iv = iv_gen_.next_u64();
  util::ByteWriter w;
  w.u64(iv);
  w.bytes(crypto::encrypt(des, crypto::CipherMode::kCbc, iv, d.body));
  return w.take();
}

std::optional<util::Bytes> HostPairProtocol::unprotect(
    const core::Principal& source, util::BytesView wire) {
  util::ByteReader r(wire);
  const auto iv = r.u64();
  if (!iv) return std::nullopt;
  const auto master = keys_.master_key(source);
  if (!master) return std::nullopt;
  const crypto::Des des = master_key_des(*master);
  return crypto::decrypt(des, crypto::CipherMode::kCbc, *iv, r.rest());
}

}  // namespace fbs::baselines
