#include "crypto/block_modes.hpp"

#include "crypto/des3.hpp"

namespace fbs::crypto {

namespace {

constexpr std::size_t kBlock = Des::kBlockSize;

/// Shared keystream generator for the two stream modes. CFB feeds the
/// previous ciphertext block back through the cipher; OFB feeds the cipher
/// output back, independent of the data.
template <class Cipher>
void stream_crypt_into(const Cipher& cipher, CipherMode mode,
                       std::uint64_t iv, util::BytesView in, bool decrypting,
                       util::Bytes& out) {
  out.resize(in.size());
  std::uint64_t feedback = iv;
  for (std::size_t off = 0; off < in.size(); off += kBlock) {
    const std::uint64_t keystream = cipher.encrypt_block(feedback);
    const std::size_t n = std::min(kBlock, in.size() - off);
    std::uint64_t in_block = 0;
    for (std::size_t i = 0; i < n; ++i)
      in_block |= static_cast<std::uint64_t>(in[off + i]) << (56 - 8 * i);
    const std::uint64_t out_block = in_block ^ keystream;
    for (std::size_t i = 0; i < n; ++i)
      out[off + i] = static_cast<std::uint8_t>(out_block >> (56 - 8 * i));
    if (mode == CipherMode::kOfb) {
      feedback = keystream;
    } else {  // CFB: feedback is the ciphertext block
      feedback = decrypting ? in_block : out_block;
    }
  }
}

}  // namespace

template <class Cipher>
void encrypt_into(const Cipher& cipher, CipherMode mode, std::uint64_t iv,
                  util::BytesView plaintext, util::Bytes& out) {
  switch (mode) {
    case CipherMode::kEcb: {
      detail::pkcs7_pad_into(plaintext, out);
      for (std::size_t off = 0; off < out.size(); off += kBlock) {
        // Confounder-XOR ECB per Section 5.2.
        const std::uint64_t pt = Des::load_be64(&out[off]) ^ iv;
        Des::store_be64(cipher.encrypt_block(pt), &out[off]);
      }
      return;
    }
    case CipherMode::kCbc: {
      detail::pkcs7_pad_into(plaintext, out);
      cbc_encrypt_blocks(cipher, iv, out.data(), out.size() / kBlock);
      return;
    }
    case CipherMode::kCfb:
    case CipherMode::kOfb:
      stream_crypt_into(cipher, mode, iv, plaintext, /*decrypting=*/false,
                        out);
      return;
  }
  out.clear();
}

template <class Cipher>
bool decrypt_into(const Cipher& cipher, CipherMode mode, std::uint64_t iv,
                  util::BytesView ciphertext, util::Bytes& out) {
  switch (mode) {
    case CipherMode::kEcb: {
      if (ciphertext.empty() || ciphertext.size() % kBlock != 0) return false;
      out.resize(ciphertext.size());
      for (std::size_t off = 0; off < out.size(); off += kBlock) {
        const std::uint64_t pt =
            cipher.decrypt_block(Des::load_be64(&ciphertext[off])) ^ iv;
        Des::store_be64(pt, &out[off]);
      }
      return detail::pkcs7_unpad_in_place(out);
    }
    case CipherMode::kCbc: {
      if (ciphertext.empty() || ciphertext.size() % kBlock != 0) return false;
      out.resize(ciphertext.size());
      cbc_decrypt_blocks(cipher, iv, ciphertext.data(), out.data(),
                         ciphertext.size() / kBlock);
      return detail::pkcs7_unpad_in_place(out);
    }
    case CipherMode::kCfb:
    case CipherMode::kOfb:
      stream_crypt_into(cipher, mode, iv, ciphertext, /*decrypting=*/true,
                        out);
      return true;
  }
  return false;
}

template void encrypt_into<Des>(const Des&, CipherMode, std::uint64_t,
                                util::BytesView, util::Bytes&);
template bool decrypt_into<Des>(const Des&, CipherMode, std::uint64_t,
                                util::BytesView, util::Bytes&);
template void encrypt_into<Des3>(const Des3&, CipherMode, std::uint64_t,
                                 util::BytesView, util::Bytes&);
template bool decrypt_into<Des3>(const Des3&, CipherMode, std::uint64_t,
                                 util::BytesView, util::Bytes&);

}  // namespace fbs::crypto
