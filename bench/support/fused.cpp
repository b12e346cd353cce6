#include "support/fused.hpp"

#include "crypto/md5.hpp"

namespace fbs::crypto {

FusedResult fused_keyed_md5_des_cbc(const Des& des, std::uint64_t iv,
                                    util::BytesView mac_key,
                                    util::BytesView mac_prefix,
                                    util::BytesView body) {
  FusedResult out;
  Md5 mac;
  mac.update(mac_key);
  mac.update(mac_prefix);

  const std::size_t kBlock = Des::kBlockSize;
  const std::size_t whole = body.size() / kBlock * kBlock;
  // PKCS#7 always adds 1..8 bytes, so the ciphertext is exactly one block
  // past the last whole plaintext block; size it once up front.
  out.ciphertext.resize(whole + kBlock);

  std::uint64_t chain = iv;
  std::size_t off = 0;
  for (; off < whole; off += kBlock) {
    // The single pass: this block is hashed and encrypted back to back
    // while it is hot in cache.
    mac.update(body.subspan(off, kBlock));
    chain = des.encrypt_block(Des::load_be64(&body[off]) ^ chain);
    Des::store_be64(chain, &out.ciphertext[off]);
  }

  // Tail: remaining plaintext is hashed; the padded final block encrypted.
  const std::size_t rem = body.size() - whole;
  if (rem) mac.update(body.subspan(whole, rem));
  std::uint8_t last[Des::kBlockSize];
  const std::uint8_t pad = static_cast<std::uint8_t>(kBlock - rem);
  for (std::size_t i = 0; i < kBlock; ++i)
    last[i] = i < rem ? body[whole + i] : pad;
  chain = des.encrypt_block(Des::load_be64(last) ^ chain);
  Des::store_be64(chain, &out.ciphertext[whole]);

  out.mac = mac.finish();
  return out;
}

}  // namespace fbs::crypto
