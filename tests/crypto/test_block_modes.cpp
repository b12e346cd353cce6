#include "crypto/block_modes.hpp"

#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "crypto/des3.hpp"
#include "util/rng.hpp"

namespace fbs::crypto {
namespace {

class BlockModesRoundTrip
    : public ::testing::TestWithParam<std::tuple<CipherMode, std::size_t>> {};

TEST_P(BlockModesRoundTrip, EncryptThenDecryptIsIdentity) {
  const auto [mode, length] = GetParam();
  util::SplitMix64 rng(static_cast<std::uint64_t>(length) * 31 +
                       static_cast<std::uint64_t>(mode));
  const Des des(rng.next_bytes(8));
  const util::Bytes plain = rng.next_bytes(length);
  const std::uint64_t iv = rng.next_u64();

  const util::Bytes ct = encrypt(des, mode, iv, plain);
  const auto back = decrypt(des, mode, iv, ct);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, plain);

  if (mode == CipherMode::kEcb || mode == CipherMode::kCbc) {
    EXPECT_EQ(ct.size() % 8, 0u);
    EXPECT_GT(ct.size(), plain.size());  // PKCS#7 always pads
  } else {
    EXPECT_EQ(ct.size(), plain.size());  // stream modes preserve length
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllModesManyLengths, BlockModesRoundTrip,
    ::testing::Combine(::testing::Values(CipherMode::kEcb, CipherMode::kCbc,
                                         CipherMode::kCfb, CipherMode::kOfb),
                       ::testing::Values(0u, 1u, 7u, 8u, 9u, 15u, 16u, 63u,
                                         64u, 100u, 1460u)));

TEST(BlockModes, Fips81CbcKnownVector) {
  // FIPS PUB 81 appendix CBC example: key 0123456789abcdef,
  // IV 1234567890abcdef, plaintext "Now is the time for all ".
  const Des des(*util::from_hex("0123456789abcdef"));
  const util::Bytes pt = util::to_bytes("Now is the time for all ");
  const util::Bytes ct = encrypt(des, CipherMode::kCbc,
                                 0x1234567890abcdefull, pt);
  // Our CBC appends a PKCS#7 block; the first 24 bytes must match the
  // published ciphertext.
  EXPECT_EQ(util::to_hex(util::Bytes(ct.begin(), ct.begin() + 24)),
            "e5c7cdde872bf27c43e934008c389c0f683788499a7c05f6");
}

TEST(BlockModes, CbcDiffersFromEcbOnRepeatedBlocks) {
  util::SplitMix64 rng(1);
  const Des des(rng.next_bytes(8));
  util::Bytes plain(32, 0x42);  // four identical blocks
  const util::Bytes ecb = encrypt(des, CipherMode::kEcb, 0, plain);
  const util::Bytes cbc = encrypt(des, CipherMode::kCbc, 0, plain);
  // ECB with zero confounder leaks block equality; CBC must not.
  EXPECT_EQ(util::Bytes(ecb.begin(), ecb.begin() + 8),
            util::Bytes(ecb.begin() + 8, ecb.begin() + 16));
  EXPECT_NE(util::Bytes(cbc.begin(), cbc.begin() + 8),
            util::Bytes(cbc.begin() + 8, cbc.begin() + 16));
}

TEST(BlockModes, ConfounderHidesIdenticalDatagrams) {
  // Section 5.2: the confounder's purpose -- equal plaintexts in the same
  // flow must not produce equal ciphertexts, in every mode.
  util::SplitMix64 rng(2);
  const Des des(rng.next_bytes(8));
  const util::Bytes plain = util::to_bytes("GET /index.html HTTP/1.0");
  for (auto mode : {CipherMode::kEcb, CipherMode::kCbc, CipherMode::kCfb,
                    CipherMode::kOfb}) {
    const util::Bytes a = encrypt(des, mode, 0x1111111111111111ull, plain);
    const util::Bytes b = encrypt(des, mode, 0x2222222222222222ull, plain);
    EXPECT_NE(a, b) << static_cast<int>(mode);
  }
}

TEST(BlockModes, WrongIvFailsToDecrypt) {
  util::SplitMix64 rng(3);
  const Des des(rng.next_bytes(8));
  const util::Bytes plain = util::to_bytes("confidential payload here");
  for (auto mode : {CipherMode::kCbc, CipherMode::kCfb, CipherMode::kOfb}) {
    const util::Bytes ct = encrypt(des, mode, 42, plain);
    const auto wrong = decrypt(des, mode, 43, ct);
    // Stream modes and CBC either fail padding or produce different bytes.
    if (wrong.has_value()) {
      EXPECT_NE(*wrong, plain);
    }
  }
}

TEST(BlockModes, WrongKeyFailsToDecrypt) {
  util::SplitMix64 rng(4);
  const Des good(rng.next_bytes(8));
  const Des bad(rng.next_bytes(8));
  const util::Bytes plain = util::to_bytes("per-flow key separation");
  const util::Bytes ct = encrypt(good, CipherMode::kCbc, 7, plain);
  const auto out = decrypt(bad, CipherMode::kCbc, 7, ct);
  if (out.has_value()) {
    EXPECT_NE(*out, plain);
  }
}

TEST(BlockModes, DecryptRejectsNonBlockSizedInput) {
  util::SplitMix64 rng(5);
  const Des des(rng.next_bytes(8));
  const util::Bytes junk(13, 0xAA);
  EXPECT_FALSE(decrypt(des, CipherMode::kEcb, 0, junk).has_value());
  EXPECT_FALSE(decrypt(des, CipherMode::kCbc, 0, junk).has_value());
}

TEST(BlockModes, DecryptRejectsEmptyBlockModeInput) {
  util::SplitMix64 rng(6);
  const Des des(rng.next_bytes(8));
  EXPECT_FALSE(decrypt(des, CipherMode::kCbc, 0, util::Bytes{}).has_value());
  // Stream modes: empty in, empty out.
  EXPECT_TRUE(decrypt(des, CipherMode::kOfb, 0, util::Bytes{})->empty());
}

TEST(BlockModes, CorruptedPaddingDetected) {
  util::SplitMix64 rng(7);
  const Des des(rng.next_bytes(8));
  util::Bytes ct = encrypt(des, CipherMode::kCbc, 9, util::to_bytes("xyz"));
  // Flipping bits in the last block corrupts padding with high probability.
  ct.back() ^= 0xFF;
  ct[ct.size() - 2] ^= 0xFF;
  const auto out = decrypt(des, CipherMode::kCbc, 9, ct);
  if (out.has_value()) {
    EXPECT_NE(*out, util::to_bytes("xyz"));
  }
}

TEST(BlockModes, IntoVariantsMatchAllocatingOnes) {
  // The datagram fast path uses encrypt_into/decrypt_into with a reused
  // buffer; every mode and length must be bit-identical to the one-shots,
  // including when the buffer arrives dirty and oversized from a previous
  // larger datagram.
  util::SplitMix64 rng(9);
  const Des des(rng.next_bytes(8));
  util::Bytes ct_buf(4096, 0xEE);  // dirty, oversized
  util::Bytes pt_buf(4096, 0xEE);
  for (auto mode : {CipherMode::kEcb, CipherMode::kCbc, CipherMode::kCfb,
                    CipherMode::kOfb}) {
    for (std::size_t len : {0u, 1u, 7u, 8u, 9u, 100u, 1460u}) {
      const util::Bytes plain = rng.next_bytes(len);
      const std::uint64_t iv = rng.next_u64();
      encrypt_into(des, mode, iv, plain, ct_buf);
      EXPECT_EQ(ct_buf, encrypt(des, mode, iv, plain))
          << static_cast<int>(mode) << " len " << len;
      ASSERT_TRUE(decrypt_into(des, mode, iv, ct_buf, pt_buf));
      EXPECT_EQ(pt_buf, plain) << static_cast<int>(mode) << " len " << len;
    }
  }
}

TEST(BlockModes, DecryptIntoRejectsWhatDecryptRejects) {
  util::SplitMix64 rng(10);
  const Des des(rng.next_bytes(8));
  util::Bytes out;
  EXPECT_FALSE(decrypt_into(des, CipherMode::kEcb, 0, util::Bytes(13, 0xAA),
                            out));
  EXPECT_FALSE(decrypt_into(des, CipherMode::kCbc, 0, util::Bytes{}, out));
  // Bad PKCS#7 padding: all-zero "ciphertext" decrypts to garbage padding
  // with overwhelming probability.
  bool any_rejected = false;
  for (int i = 0; i < 8; ++i) {
    util::Bytes junk = rng.next_bytes(16);
    if (!decrypt_into(des, CipherMode::kCbc, rng.next_u64(), junk, out)) {
      any_rejected = true;
    }
  }
  EXPECT_TRUE(any_rejected);
}

TEST(BlockModes, EcbConfounderXorChangesCiphertext) {
  // Section 5.2: in ECB the confounder is XOR'ed with every plaintext block.
  util::SplitMix64 rng(8);
  const Des des(rng.next_bytes(8));
  const util::Bytes plain(16, 0x00);
  EXPECT_NE(encrypt(des, CipherMode::kEcb, 1, plain),
            encrypt(des, CipherMode::kEcb, 2, plain));
}

// The interleaved seal kernel against encrypt_into's one-chain loop: 1-4
// chains (and more, so lanes refill) of unequal lengths, under one shared
// key or a key per chain. A chain of `blocks` blocks carries a plaintext of
// 8 * blocks - pad bytes, padded as encrypt_into pads it; empty chains are
// left alone.
TEST(BlockModes, EncryptChainsMatchEncryptIntoOnRandomShapes) {
  util::SplitMix64 rng(23);
  constexpr std::size_t kLengths[] = {0, 1, 9, 73, 177};
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t n =
        trial < 160 ? 1 + trial % 4 : 5 + rng.next_below(8);
    const bool shared = trial % 2 == 0;
    std::vector<Des> keys;
    for (std::size_t i = 0; i < (shared ? 1 : n); ++i)
      keys.emplace_back(rng.next_bytes(8));
    std::vector<util::Bytes> plains(n), buffers(n);
    std::vector<std::uint64_t> ivs(n);
    std::vector<CbcChain<Des>> chains(n);
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t blocks = kLengths[rng.next_below(5)];
      ivs[i] = rng.next_u64();
      if (blocks > 0) {
        plains[i] = rng.next_bytes(8 * blocks - 1 - rng.next_below(8));
        detail::pkcs7_pad_into(plains[i], buffers[i]);
      }
      ASSERT_EQ(buffers[i].size(), 8 * blocks);
      chains[i] = {&keys[shared ? 0 : i], ivs[i], buffers[i].data(), blocks};
    }
    cbc_encrypt_chains<Des>(chains);
    for (std::size_t i = 0; i < n; ++i) {
      if (chains[i].blocks == 0) {
        EXPECT_TRUE(buffers[i].empty());
        continue;
      }
      EXPECT_EQ(buffers[i], encrypt(keys[shared ? 0 : i], CipherMode::kCbc,
                                    ivs[i], plains[i]))
          << "trial " << trial << " chain " << i << " of " << n;
    }
  }
}

/// The one-block CBC-decrypt recurrence cbc_decrypt_blocks must match.
template <class Cipher>
util::Bytes one_block_cbc_decrypt(const Cipher& cipher, std::uint64_t chain,
                                  const util::Bytes& ct) {
  util::Bytes out(ct.size());
  for (std::size_t off = 0; off < ct.size(); off += Des::kBlockSize) {
    const std::uint64_t c = Des::load_be64(ct.data() + off);
    Des::store_be64(cipher.decrypt_block(c) ^ chain, out.data() + off);
    chain = c;
  }
  return out;
}

// The interleaved open against the one-block loop: every length from 0 to
// 9 blocks (each tail of the four-block steps) and a 177-block message,
// out of place and in place (pt == ct, where a step that stored before it
// loaded would chain from plaintext), from an IV or from the ciphertext
// block before a run that starts mid-message.
template <class Cipher>
void check_decrypt_blocks(std::uint64_t seed, std::size_t key_bytes) {
  util::SplitMix64 rng(seed);
  for (int trial = 0; trial < 40; ++trial) {
    const Cipher cipher(rng.next_bytes(key_bytes));
    for (std::size_t blocks = 0; blocks <= 10; ++blocks) {
      const std::size_t n = blocks == 10 ? 177 : blocks;
      // A run from block `skip` of an (n + skip)-block message chains from
      // the ciphertext block before it.
      const std::size_t skip = rng.next_below(3);
      const util::Bytes msg = rng.next_bytes(Des::kBlockSize * (n + skip));
      const std::uint64_t iv = rng.next_u64();
      const std::uint64_t chain =
          skip == 0 ? iv
                    : Des::load_be64(msg.data() + Des::kBlockSize * (skip - 1));
      const util::Bytes ct(msg.begin() + Des::kBlockSize * skip, msg.end());
      const util::Bytes want = one_block_cbc_decrypt(cipher, chain, ct);

      util::Bytes out(ct.size());
      cbc_decrypt_blocks(cipher, chain, ct.data(), out.data(), n);
      EXPECT_EQ(out, want) << "out of place, trial " << trial << ", " << n
                           << " blocks from block " << skip;
      util::Bytes in_place = ct;
      cbc_decrypt_blocks(cipher, chain, in_place.data(), in_place.data(), n);
      EXPECT_EQ(in_place, want) << "in place, trial " << trial << ", " << n
                                << " blocks from block " << skip;
    }
  }
}

TEST(BlockModes, DecryptBlocksMatchesOneBlockLoopOnRandomShapes) {
  check_decrypt_blocks<Des>(29, Des::kKeySize);
  check_decrypt_blocks<Des3>(31, Des3::kKeySize);
}

}  // namespace
}  // namespace fbs::crypto
