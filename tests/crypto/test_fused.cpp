#include "crypto/fused.hpp"

#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <vector>

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

class FusedIntoSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FusedIntoSweep, SealIntoMatchesOneShot) {
  // The per-flow-context seal must be bit-identical to the one-shot form:
  // same MAC (the context has the key pre-absorbed) and same ciphertext,
  // with the output buffer arriving dirty from a previous datagram.
  const std::size_t size = GetParam();
  util::SplitMix64 rng(size + 7);
  const util::Bytes mac_key = rng.next_bytes(16);
  const util::Bytes prefix = rng.next_bytes(8);
  const util::Bytes body = rng.next_bytes(size);
  const Des des(rng.next_bytes(8));
  const std::uint64_t iv = rng.next_u64();

  const FusedResult one_shot =
      fused_keyed_md5_des_cbc(des, iv, mac_key, prefix, body);

  KeyedPrefixMac mac_alg(std::make_unique<Md5>());
  auto ctx = mac_alg.make_context(mac_key);
  std::uint8_t tag[16];
  util::Bytes ct(1, 0xEE);  // dirty
  fused_seal_into(des, iv, ctx, prefix, body, tag, ct);
  EXPECT_EQ(util::Bytes(tag, tag + 16), one_shot.mac);
  EXPECT_EQ(ct, one_shot.ciphertext);

  // And open_into inverts it, producing the sender's tag.
  std::uint8_t rtag[16];
  util::Bytes back(1, 0xEE);
  ASSERT_TRUE(fused_open_into(des, iv, ctx, prefix, ct, rtag, back));
  EXPECT_EQ(back, body);
  EXPECT_EQ(util::Bytes(rtag, rtag + 16), one_shot.mac);
}

INSTANTIATE_TEST_SUITE_P(Sizes, FusedIntoSweep,
                         ::testing::Values(0u, 1u, 7u, 8u, 9u, 15u, 16u, 63u,
                                           64u, 100u, 1024u, 1460u, 8192u));

TEST(Fused, OpenIntoRejectsMalformedCiphertext) {
  util::SplitMix64 rng(123);
  const Des des(rng.next_bytes(8));
  KeyedPrefixMac mac_alg(std::make_unique<Md5>());
  auto ctx = mac_alg.make_context(rng.next_bytes(16));
  std::uint8_t tag[16];
  util::Bytes body;
  // Empty and non-block-multiple inputs are malformed (a sealed body always
  // carries at least the padding block).
  EXPECT_FALSE(fused_open_into(des, 0, ctx, {}, util::Bytes{}, tag, body));
  EXPECT_FALSE(
      fused_open_into(des, 0, ctx, {}, util::Bytes(13, 0xAB), tag, body));
  // Random blocks decrypt to bad PKCS#7 padding with high probability.
  bool any_rejected = false;
  for (int i = 0; i < 8; ++i) {
    if (!fused_open_into(des, rng.next_u64(), ctx, {}, rng.next_bytes(16),
                         tag, body)) {
      any_rejected = true;
    }
  }
  EXPECT_TRUE(any_rejected);
}

TEST(Fused, ContextIsReusableAcrossDatagrams) {
  // One MacContext serves a whole flow: sealing different bodies back to
  // back must give each its independent correct tag (begin() resets state).
  util::SplitMix64 rng(321);
  const util::Bytes mac_key = rng.next_bytes(16);
  const Des des(rng.next_bytes(8));
  KeyedPrefixMac mac_alg(std::make_unique<Md5>());
  auto ctx = mac_alg.make_context(mac_key);
  util::Bytes ct;
  for (int i = 0; i < 4; ++i) {
    const util::Bytes prefix = rng.next_bytes(8);
    const util::Bytes body = rng.next_bytes(100 + 13 * i);
    const std::uint64_t iv = rng.next_u64();
    std::uint8_t tag[16];
    fused_seal_into(des, iv, ctx, prefix, body, tag, ct);
    const FusedResult expect =
        fused_keyed_md5_des_cbc(des, iv, mac_key, prefix, body);
    EXPECT_EQ(util::Bytes(tag, tag + 16), expect.mac) << i;
    EXPECT_EQ(ct, expect.ciphertext) << i;
  }
}

TEST(FusedBatch, SealBatchBitIdenticalToSequentialSealInto) {
  // 100 jobs (several lane chunks plus a residue), mixed keys and sizes:
  // every job's tag and ciphertext must match its own fused_seal_into run.
  util::SplitMix64 rng(777);
  constexpr std::size_t kJobs = 100;
  std::vector<Des> des;
  std::vector<MacContext> macs;
  std::vector<util::Bytes> bodies, prefixes;
  std::vector<std::uint64_t> ivs;
  KeyedPrefixMac mac_alg(std::make_unique<Md5>());
  for (std::size_t i = 0; i < kJobs; ++i) {
    const util::Bytes key = rng.next_bytes(8);
    des.emplace_back(key);
    macs.push_back(mac_alg.make_context(rng.next_bytes(16)));
    prefixes.push_back(rng.next_bytes(8));
    bodies.push_back(rng.next_bytes(i * 17 % 300));
    ivs.push_back(rng.next_u64());
  }

  std::vector<util::Bytes> ct(kJobs, util::Bytes(1, 0xEE));  // dirty
  std::vector<std::array<std::uint8_t, 16>> tags(kJobs);
  std::vector<FusedSealJob> jobs(kJobs);
  for (std::size_t i = 0; i < kJobs; ++i)
    jobs[i] = FusedSealJob{&des[i],    ivs[i],         &macs[i],
                           prefixes[i], bodies[i],      tags[i].data(),
                           &ct[i]};
  CryptoBatch batch;
  fused_seal_batch(batch, jobs);
  EXPECT_GT(batch.stats().bitsliced_blocks, 0u);

  for (std::size_t i = 0; i < kJobs; ++i) {
    std::uint8_t ref_tag[16];
    util::Bytes ref_ct;
    fused_seal_into(des[i], ivs[i], macs[i], prefixes[i], bodies[i],
                    ref_tag, ref_ct);
    EXPECT_EQ(ct[i], ref_ct) << i;
    EXPECT_EQ(util::Bytes(tags[i].begin(), tags[i].end()),
              util::Bytes(ref_tag, ref_tag + 16))
        << i;
  }
}

TEST(FusedBatch, OpenBatchBitIdenticalToSequentialOpenInto) {
  // Round-trip through the batch open, including malformed jobs salted into
  // the burst: ok flags, recovered bodies and tags must all match the
  // per-datagram fused_open_into verdicts.
  util::SplitMix64 rng(888);
  constexpr std::size_t kJobs = 80;
  std::vector<Des> des;
  std::vector<MacContext> macs;
  std::vector<util::Bytes> cts, prefixes;
  std::vector<std::uint64_t> ivs;
  KeyedPrefixMac mac_alg(std::make_unique<Md5>());
  for (std::size_t i = 0; i < kJobs; ++i) {
    const util::Bytes key = rng.next_bytes(8);
    des.emplace_back(key);
    macs.push_back(mac_alg.make_context(rng.next_bytes(16)));
    prefixes.push_back(rng.next_bytes(8));
    ivs.push_back(rng.next_u64());
    if (i % 11 == 3) {
      cts.push_back(rng.next_bytes(13));  // malformed length
    } else if (i % 11 == 7) {
      cts.push_back(rng.next_bytes(16));  // random blocks: padding lottery
    } else {
      std::uint8_t tag[16];
      util::Bytes ct;
      fused_seal_into(des.back(), ivs.back(), macs.back(), prefixes.back(),
                      rng.next_bytes(i * 23 % 400), tag, ct);
      cts.push_back(std::move(ct));
    }
  }

  std::vector<util::Bytes> got_body(kJobs, util::Bytes(1, 0xEE));
  std::vector<std::array<std::uint8_t, 16>> got_tag(kJobs);
  std::vector<FusedOpenJob> jobs(kJobs);
  for (std::size_t i = 0; i < kJobs; ++i) {
    jobs[i].des = &des[i];
    jobs[i].iv = ivs[i];
    jobs[i].mac = &macs[i];
    jobs[i].mac_prefix = prefixes[i];
    jobs[i].ciphertext = cts[i];
    jobs[i].mac_out = got_tag[i].data();
    jobs[i].body = &got_body[i];
  }
  CryptoBatch batch;
  fused_open_batch(batch, jobs);

  for (std::size_t i = 0; i < kJobs; ++i) {
    std::uint8_t ref_tag[16];
    util::Bytes ref_body;
    const bool ref_ok = fused_open_into(des[i], ivs[i], macs[i],
                                        prefixes[i], cts[i], ref_tag,
                                        ref_body);
    EXPECT_EQ(jobs[i].ok, ref_ok) << i;
    if (!ref_ok) continue;
    EXPECT_EQ(got_body[i], ref_body) << i;
    EXPECT_EQ(util::Bytes(got_tag[i].begin(), got_tag[i].end()),
              util::Bytes(ref_tag, ref_tag + 16))
        << i;
  }
}

}  // namespace
}  // namespace fbs::crypto
