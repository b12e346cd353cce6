#include "crypto/mac.hpp"

#include <gtest/gtest.h>

#include "crypto/md5.hpp"
#include "crypto/sha1.hpp"

namespace fbs::crypto {
namespace {

std::string hmac_md5_hex(const util::Bytes& key, const util::Bytes& msg) {
  return util::to_hex(hmac_md5(key, msg));
}

std::string hmac_sha1_hex(const util::Bytes& key, const util::Bytes& msg) {
  return util::to_hex(hmac_sha1(key, msg));
}

// RFC 2202 test cases for HMAC-MD5.
TEST(HmacMd5, Rfc2202Case1) {
  EXPECT_EQ(hmac_md5_hex(util::Bytes(16, 0x0b), util::to_bytes("Hi There")),
            "9294727a3638bb1c13f48ef8158bfc9d");
}

TEST(HmacMd5, Rfc2202Case2) {
  EXPECT_EQ(hmac_md5_hex(util::to_bytes("Jefe"),
                         util::to_bytes("what do ya want for nothing?")),
            "750c783e6ab0b503eaa86e310a5db738");
}

TEST(HmacMd5, Rfc2202Case3) {
  EXPECT_EQ(hmac_md5_hex(util::Bytes(16, 0xaa), util::Bytes(50, 0xdd)),
            "56be34521d144c88dbb8c733f0e8b3f6");
}

TEST(HmacMd5, Rfc2202Case4) {
  EXPECT_EQ(hmac_md5_hex(*util::from_hex("0102030405060708090a0b0c0d0e0f101112"
                                         "13141516171819"),
                         util::Bytes(50, 0xcd)),
            "697eaf0aca3a3aea3a75164746ffaa79");
}

TEST(HmacMd5, Rfc2202Case6LongKey) {
  // 80-byte key exercises the hash-the-key path.
  EXPECT_EQ(hmac_md5_hex(util::Bytes(80, 0xaa),
                         util::to_bytes(
                             "Test Using Larger Than Block-Size Key - Hash "
                             "Key First")),
            "6b1ab7fe4bd7bf8f0b62e6ce61b9d0cd");
}

// RFC 2202 test cases for HMAC-SHA1.
TEST(HmacSha1, Rfc2202Case1) {
  EXPECT_EQ(hmac_sha1_hex(util::Bytes(20, 0x0b), util::to_bytes("Hi There")),
            "b617318655057264e28bc0b6fb378c8ef146be00");
}

TEST(HmacSha1, Rfc2202Case2) {
  EXPECT_EQ(hmac_sha1_hex(util::to_bytes("Jefe"),
                          util::to_bytes("what do ya want for nothing?")),
            "effcdf6ae5eb2fa2d27416d5f184df9c259a7c79");
}

TEST(HmacSha1, Rfc2202Case3) {
  EXPECT_EQ(hmac_sha1_hex(util::Bytes(20, 0xaa), util::Bytes(50, 0xdd)),
            "125d7342b9ac11cd91a39af48aa17b4f63f175d3");
}

TEST(KeyedPrefixMac, EqualsHashOfKeyThenMessage) {
  // The paper's construction is literally H(K | chunks...).
  KeyedPrefixMac mac(std::make_unique<Md5>());
  const util::Bytes key = util::to_bytes("flowkey");
  const util::Bytes a = util::to_bytes("confounder+ts");
  const util::Bytes b = util::to_bytes("payload");
  util::Bytes concat = key;
  concat.insert(concat.end(), a.begin(), a.end());
  concat.insert(concat.end(), b.begin(), b.end());
  EXPECT_EQ(mac.compute(key, {a, b}), md5(concat));
}

TEST(KeyedPrefixMac, KeySeparation) {
  KeyedPrefixMac mac(std::make_unique<Md5>());
  const util::Bytes msg = util::to_bytes("same message");
  EXPECT_NE(mac.compute(util::to_bytes("key1"), {msg}),
            mac.compute(util::to_bytes("key2"), {msg}));
}

TEST(KeyedPrefixMac, MessageSensitivity) {
  KeyedPrefixMac mac(std::make_unique<Md5>());
  const util::Bytes key = util::to_bytes("k");
  EXPECT_NE(mac.compute(key, {util::to_bytes("msg-a")}),
            mac.compute(key, {util::to_bytes("msg-b")}));
}

TEST(KeyedPrefixMac, ChunkingIsTransparent) {
  KeyedPrefixMac mac(std::make_unique<Md5>());
  const util::Bytes key = util::to_bytes("k");
  const util::Bytes ab = util::to_bytes("ab");
  const util::Bytes a = util::to_bytes("a");
  const util::Bytes b = util::to_bytes("b");
  EXPECT_EQ(mac.compute(key, {ab}), mac.compute(key, {a, b}));
}

TEST(HmacMac, ChunkingIsTransparent) {
  HmacMac mac(std::make_unique<Sha1>());
  const util::Bytes key = util::to_bytes("k");
  const util::Bytes a = util::to_bytes("hello ");
  const util::Bytes b = util::to_bytes("world");
  const util::Bytes whole = util::to_bytes("hello world");
  EXPECT_EQ(mac.compute(key, {a, b}), mac.compute(key, {whole}));
}

TEST(Mac, SizesMatchUnderlyingHash) {
  EXPECT_EQ(KeyedPrefixMac(std::make_unique<Md5>()).mac_size(), 16u);
  EXPECT_EQ(KeyedPrefixMac(std::make_unique<Sha1>()).mac_size(), 20u);
  EXPECT_EQ(HmacMac(std::make_unique<Md5>()).mac_size(), 16u);
  EXPECT_EQ(HmacMac(std::make_unique<Sha1>()).mac_size(), 20u);
}

TEST(MacContext, MatchesOneShotComputeForEveryAlgorithm) {
  // The per-flow streaming contexts (key precomputed once, then
  // begin/update/finish_into per datagram) must agree with Mac::compute for
  // every algorithm, key length (short, block-sized, overlong), and
  // chunking, across repeated reuse of one context.
  const util::Bytes keys[] = {
      util::to_bytes("k"), util::Bytes(16, 0x0b), util::Bytes(64, 0x3c),
      util::Bytes(80, 0xaa),  // overlong: exercises hash-the-key
  };
  const util::Bytes a = util::to_bytes("confounder+ts");
  const util::Bytes b = util::to_bytes("payload bytes of a datagram");
  std::unique_ptr<Mac> macs[] = {
      std::make_unique<KeyedPrefixMac>(std::make_unique<Md5>()),
      std::make_unique<KeyedPrefixMac>(std::make_unique<Sha1>()),
      std::make_unique<HmacMac>(std::make_unique<Md5>()),
      std::make_unique<HmacMac>(std::make_unique<Sha1>()),
      std::make_unique<NullMac>(),
  };
  for (const auto& mac : macs) {
    for (const util::Bytes& key : keys) {
      auto ctx = mac->make_context(key);
      ASSERT_EQ(ctx.mac_size(), mac->mac_size());
      for (int round = 0; round < 3; ++round) {  // context reuse
        ctx.begin();
        ctx.update(a);
        ctx.update(b);
        util::Bytes tag(ctx.mac_size());
        ctx.finish_into(tag.data());
        EXPECT_EQ(tag, mac->compute(key, {a, b}))
            << "key len " << key.size() << " round " << round;
      }
    }
  }
}

TEST(MacContext, AbandonedMessageDoesNotPoisonTheNext) {
  // The receive path bails out mid-datagram on padding failures; the next
  // datagram's begin() must fully reset the context.
  HmacMac mac(std::make_unique<Md5>());
  const util::Bytes key = util::to_bytes("flow key");
  auto ctx = mac.make_context(key);
  ctx.begin();
  ctx.update(util::to_bytes("partial garbage never finished"));
  ctx.begin();
  ctx.update(util::to_bytes("Hi There"));
  EXPECT_EQ(ctx.finish(), mac.compute(key, {util::to_bytes("Hi There")}));
}

TEST(Mac, HmacDiffersFromKeyedPrefix) {
  const util::Bytes key = util::to_bytes("key");
  const util::Bytes msg = util::to_bytes("msg");
  KeyedPrefixMac kp(std::make_unique<Md5>());
  HmacMac hm(std::make_unique<Md5>());
  EXPECT_NE(kp.compute(key, {msg}), hm.compute(key, {msg}));
}

}  // namespace
}  // namespace fbs::crypto
