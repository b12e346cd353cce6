#include "crypto/fused.hpp"

#include <algorithm>

#include "crypto/block_modes.hpp"
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

void fused_seal_into(const Des& des, std::uint64_t iv, MacContext& mac,
                     util::BytesView mac_prefix, util::BytesView body,
                     std::uint8_t* mac_out, util::Bytes& ciphertext) {
  mac.begin();
  mac.update(mac_prefix);

  const std::size_t kBlock = Des::kBlockSize;
  const std::size_t whole = body.size() / kBlock * kBlock;
  ciphertext.resize(whole + kBlock);

  std::uint64_t chain = iv;
  for (std::size_t off = 0; off < whole; off += kBlock) {
    mac.update(body.subspan(off, kBlock));
    chain = des.encrypt_block(Des::load_be64(&body[off]) ^ chain);
    Des::store_be64(chain, &ciphertext[off]);
  }

  const std::size_t rem = body.size() - whole;
  if (rem) mac.update(body.subspan(whole, rem));
  std::uint8_t last[Des::kBlockSize];
  const std::uint8_t pad = static_cast<std::uint8_t>(kBlock - rem);
  for (std::size_t i = 0; i < kBlock; ++i)
    last[i] = i < rem ? body[whole + i] : pad;
  chain = des.encrypt_block(Des::load_be64(last) ^ chain);
  Des::store_be64(chain, &ciphertext[whole]);

  mac.finish_into(mac_out);
}

bool fused_open_into(const Des& des, std::uint64_t iv, MacContext& mac,
                     util::BytesView mac_prefix, util::BytesView ciphertext,
                     std::uint8_t* mac_out, util::Bytes& body) {
  const std::size_t kBlock = Des::kBlockSize;
  if (ciphertext.empty() || ciphertext.size() % kBlock != 0) return false;

  mac.begin();
  mac.update(mac_prefix);
  body.resize(ciphertext.size());

  // Every block but the last is hashed the moment it is decrypted; the
  // last block's body bytes are only known after the padding check.
  const std::size_t last_off = ciphertext.size() - kBlock;
  std::uint64_t chain = iv;
  for (std::size_t off = 0; off < ciphertext.size(); off += kBlock) {
    const std::uint64_t ct = Des::load_be64(&ciphertext[off]);
    Des::store_be64(des.decrypt_block(ct) ^ chain, &body[off]);
    chain = ct;
    if (off < last_off) mac.update({body.data() + off, kBlock});
  }

  const std::uint8_t pad = body.back();
  if (pad == 0 || pad > kBlock) return false;
  for (std::size_t i = body.size() - pad; i < body.size(); ++i)
    if (body[i] != pad) return false;
  body.resize(body.size() - pad);

  if (body.size() > last_off)
    mac.update({body.data() + last_off, body.size() - last_off});
  mac.finish_into(mac_out);
  return true;
}

void fused_seal_batch(CryptoBatch& batch, std::span<FusedSealJob> jobs) {
  constexpr std::size_t kMax = CryptoBatch::kLanes;
  CbcSealJob wide[kMax];
  for (std::size_t off = 0; off < jobs.size(); off += kMax) {
    const std::size_t n = std::min(kMax, jobs.size() - off);
    for (std::size_t i = 0; i < n; ++i) {
      FusedSealJob& j = jobs[off + i];
      // The MAC covers the plaintext, so it needs no decrypt output and can
      // run now, per datagram, while the cipher leg goes wide below.
      j.mac->begin();
      j.mac->update(j.mac_prefix);
      j.mac->update(j.body);
      j.mac->finish_into(j.mac_out);
      j.ciphertext->resize(CryptoBatch::padded_size(j.body.size()));
      wide[i] = CbcSealJob{j.des, j.iv, j.body, j.ciphertext->data()};
    }
    batch.seal_cbc({wide, n});
  }
}

void fused_open_batch(CryptoBatch& batch, std::span<FusedOpenJob> jobs) {
  constexpr std::size_t kMax = CryptoBatch::kLanes;
  CbcOpenJob wide[kMax];
  FusedOpenJob* live[kMax];
  for (std::size_t off = 0; off < jobs.size(); off += kMax) {
    const std::size_t n = std::min(kMax, jobs.size() - off);
    std::size_t m = 0;
    for (std::size_t i = 0; i < n; ++i) {
      FusedOpenJob& j = jobs[off + i];
      j.ok = false;
      if (j.ciphertext.empty() ||
          j.ciphertext.size() % Des::kBlockSize != 0)
        continue;
      j.body->resize(j.ciphertext.size());
      wide[m] = CbcOpenJob{j.des, j.iv, j.ciphertext, j.body->data()};
      live[m++] = &j;
    }
    if (m > 0) batch.open_cbc({wide, m});
    for (std::size_t k = 0; k < m; ++k) {
      FusedOpenJob& j = *live[k];
      if (!detail::pkcs7_unpad_in_place(*j.body)) continue;
      j.mac->begin();
      j.mac->update(j.mac_prefix);
      j.mac->update(*j.body);
      j.mac->finish_into(j.mac_out);
      j.ok = true;
    }
  }
}

}  // namespace fbs::crypto
