#include "crypto/des.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "support/des_reference.hpp"
#include "util/rng.hpp"

namespace fbs::crypto {
namespace {

Des des_from_hex(const char* key_hex) {
  return Des(*util::from_hex(key_hex));
}

/// The bit-walk schedule (PC-1, rotations, PC-2 one bit at a time), as
/// DesReference computes it.
DesRoundKeys reference_schedule(std::uint64_t k64) {
  std::uint8_t key[8];
  Des::store_be64(k64, key);
  return DesReference(util::BytesView(key, 8)).subkeys();
}

TEST(DesKeySchedule, TableDrivenMatchesBitWalkOnRandomKeys) {
  util::SplitMix64 rng(4646);
  for (int i = 0; i < 100000; ++i) {
    const std::uint64_t k64 = rng.next_u64();
    ASSERT_EQ(Des::key_schedule(k64), reference_schedule(k64))
        << std::hex << k64;
  }
}

TEST(DesKeySchedule, WeakAndSemiWeakKeys) {
  // FIPS 74's four weak keys give sixteen equal round keys; each of the six
  // semi-weak pairs gives one key's schedule as the other's reversed.
  const std::uint64_t weak[] = {0x0101010101010101ull, 0xFEFEFEFEFEFEFEFEull,
                                0xE0E0E0E0F1F1F1F1ull, 0x1F1F1F1F0E0E0E0Eull};
  for (const std::uint64_t k : weak) {
    const DesRoundKeys ks = Des::key_schedule(k);
    EXPECT_EQ(ks, reference_schedule(k)) << std::hex << k;
    EXPECT_TRUE(std::ranges::all_of(ks, [&](auto r) { return r == ks[0]; }))
        << std::hex << k;
  }
  const std::uint64_t semi_weak[][2] = {
      {0x01FE01FE01FE01FEull, 0xFE01FE01FE01FE01ull},
      {0x1FE01FE00EF10EF1ull, 0xE01FE01FF10EF10Eull},
      {0x01E001E001F101F1ull, 0xE001E001F101F101ull},
      {0x1FFE1FFE0EFE0EFEull, 0xFE1FFE1FFE0EFE0Eull},
      {0x011F011F010E010Eull, 0x1F011F010E010E01ull},
      {0xE0FEE0FEF1FEF1FEull, 0xFEE0FEE0FEF1FEF1ull}};
  for (const auto& [a, b] : semi_weak) {
    const DesRoundKeys ka = Des::key_schedule(a);
    DesRoundKeys kb = Des::key_schedule(b);
    EXPECT_EQ(ka, reference_schedule(a)) << std::hex << a;
    EXPECT_EQ(kb, reference_schedule(b)) << std::hex << b;
    std::ranges::reverse(kb);
    EXPECT_EQ(ka, kb) << std::hex << a;
  }
}

TEST(DesKeySchedule, ConstructorKeepsTheSchedule) {
  const Des des = des_from_hex("133457799BBCDFF1");
  EXPECT_EQ(des.round_keys(), Des::key_schedule(0x133457799BBCDFF1ull));
  // K1 and K16 of the published worked example.
  EXPECT_EQ(des.round_keys()[0], 0x1B02EFFC7072ull);
  EXPECT_EQ(des.round_keys()[15], 0xCB3D8B0E17F5ull);
}

TEST(Des, MatchesReferenceBothDirectionsOnRandomKeys) {
  // The two-word round layout against the bit-at-a-time transcription:
  // 10^5 random (key, block) pairs, each encrypted and decrypted by both.
  util::SplitMix64 rng(0x5357u);
  for (int i = 0; i < 100000; ++i) {
    const util::Bytes key = rng.next_bytes(8);
    const Des des(key);
    const DesReference ref(key);
    const std::uint64_t block = rng.next_u64();
    ASSERT_EQ(des.encrypt_block(block), ref.encrypt_block(block))
        << "trial " << i;
    ASSERT_EQ(des.decrypt_block(block), ref.decrypt_block(block))
        << "trial " << i;
  }
}

TEST(Des, ClassicWorkedExample) {
  // The widely published FIPS worked example.
  const Des des = des_from_hex("133457799BBCDFF1");
  EXPECT_EQ(des.encrypt_block(0x0123456789ABCDEFull), 0x85E813540F0AB405ull);
  EXPECT_EQ(des.decrypt_block(0x85E813540F0AB405ull), 0x0123456789ABCDEFull);
}

TEST(Des, KnownZeroCiphertext) {
  const Des des = des_from_hex("0E329232EA6D0D73");
  EXPECT_EQ(des.encrypt_block(0x8787878787878787ull), 0ull);
}

TEST(Des, AllZeroKeyVector) {
  // DES(k=00..00, pt=00..00) = 8CA64DE9C1B123A7 (standard test vector).
  const Des des = des_from_hex("0000000000000000");
  EXPECT_EQ(des.encrypt_block(0), 0x8CA64DE9C1B123A7ull);
}

TEST(Des, AllOnesKeyVector) {
  // DES(k=FF..FF, pt=FF..FF) = 7359B2163E4EDC58.
  const Des des = des_from_hex("FFFFFFFFFFFFFFFF");
  EXPECT_EQ(des.encrypt_block(0xFFFFFFFFFFFFFFFFull), 0x7359B2163E4EDC58ull);
}

TEST(Des, ParityBitsIgnored) {
  // Keys differing only in parity bits (bit 8 of each byte) are equivalent.
  const Des a = des_from_hex("133457799BBCDFF1");
  const Des b = des_from_hex("123456789ABCDEF0");
  EXPECT_EQ(a.encrypt_block(0x1122334455667788ull),
            b.encrypt_block(0x1122334455667788ull));
}

TEST(Des, EncryptDecryptRoundTripRandom) {
  util::SplitMix64 rng(17);
  for (int i = 0; i < 100; ++i) {
    const Des des(rng.next_bytes(8));
    const std::uint64_t pt = rng.next_u64();
    EXPECT_EQ(des.decrypt_block(des.encrypt_block(pt)), pt);
  }
}

TEST(Des, ComplementationProperty) {
  // DES(~k, ~p) == ~DES(k, p) -- a structural identity of the cipher that
  // catches subtle table errors.
  util::SplitMix64 rng(23);
  for (int i = 0; i < 20; ++i) {
    const util::Bytes key = rng.next_bytes(8);
    util::Bytes nkey(8);
    for (int j = 0; j < 8; ++j) nkey[j] = static_cast<std::uint8_t>(~key[j]);
    const std::uint64_t pt = rng.next_u64();
    const Des des(key), ndes(nkey);
    EXPECT_EQ(ndes.encrypt_block(~pt), ~des.encrypt_block(pt));
  }
}

TEST(Des, ByteInterfaceMatchesWordInterface) {
  const Des des = des_from_hex("133457799BBCDFF1");
  std::uint8_t in[8] = {0x01, 0x23, 0x45, 0x67, 0x89, 0xAB, 0xCD, 0xEF};
  std::uint8_t out[8];
  des.encrypt_block(in, out);
  EXPECT_EQ(Des::load_be64(out), 0x85E813540F0AB405ull);
  std::uint8_t back[8];
  des.decrypt_block(out, back);
  EXPECT_EQ(Des::load_be64(back), 0x0123456789ABCDEFull);
}

TEST(Des, AvalancheSingleBitFlip) {
  const Des des = des_from_hex("0123456789ABCDEF");
  const std::uint64_t base = des.encrypt_block(0);
  const std::uint64_t flipped = des.encrypt_block(1);
  const int diff = __builtin_popcountll(base ^ flipped);
  EXPECT_GE(diff, 16);  // avalanche: ~half the bits should change
}

TEST(Des, LoadStoreBe64RoundTrip) {
  std::uint8_t buf[8];
  Des::store_be64(0x0102030405060708ull, buf);
  EXPECT_EQ(buf[0], 0x01);
  EXPECT_EQ(buf[7], 0x08);
  EXPECT_EQ(Des::load_be64(buf), 0x0102030405060708ull);
}

}  // namespace
}  // namespace fbs::crypto
