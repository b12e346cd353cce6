#include "support/fused.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "crypto/block_modes.hpp"
#include "crypto/mac.hpp"
#include "crypto/md5.hpp"
#include "util/rng.hpp"

namespace fbs::crypto {
namespace {

class FusedSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FusedSweep, IdenticalToTwoPassPath) {
  const std::size_t size = GetParam();
  util::SplitMix64 rng(size + 1);
  const util::Bytes mac_key = rng.next_bytes(16);
  const util::Bytes prefix = rng.next_bytes(8);
  const util::Bytes body = rng.next_bytes(size);
  const Des des(rng.next_bytes(8));
  const std::uint64_t iv = rng.next_u64();

  // Reference: separate MAC pass then encryption pass.
  KeyedPrefixMac mac(std::make_unique<Md5>());
  const util::Bytes ref_mac = mac.compute(mac_key, {prefix, body});
  const util::Bytes ref_ct = encrypt(des, CipherMode::kCbc, iv, body);

  const FusedResult fused =
      fused_keyed_md5_des_cbc(des, iv, mac_key, prefix, body);
  EXPECT_EQ(fused.mac, ref_mac);
  EXPECT_EQ(fused.ciphertext, ref_ct);
}

INSTANTIATE_TEST_SUITE_P(Sizes, FusedSweep,
                         ::testing::Values(0u, 1u, 7u, 8u, 9u, 15u, 16u, 63u,
                                           64u, 100u, 1024u, 1460u, 8192u));

TEST(Fused, DecryptsAndVerifiesLikeNormalOutput) {
  util::SplitMix64 rng(99);
  const util::Bytes mac_key = rng.next_bytes(16);
  const util::Bytes prefix = rng.next_bytes(8);
  const util::Bytes body = util::to_bytes("single data-touching pass");
  const Des des(rng.next_bytes(8));
  const std::uint64_t iv = 0x1122334455667788ull;

  const FusedResult fused =
      fused_keyed_md5_des_cbc(des, iv, mac_key, prefix, body);
  const auto plain = decrypt(des, CipherMode::kCbc, iv, fused.ciphertext);
  ASSERT_TRUE(plain.has_value());
  EXPECT_EQ(*plain, body);
  KeyedPrefixMac mac(std::make_unique<Md5>());
  EXPECT_EQ(mac.compute(mac_key, {prefix, *plain}), fused.mac);
}

}  // namespace
}  // namespace fbs::crypto
