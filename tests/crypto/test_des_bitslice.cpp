#include "crypto/des_bitslice.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <vector>

#include "crypto/des.hpp"
#include "support/des_reference.hpp"
#include "support/transpose64.hpp"
#include "util/rng.hpp"

namespace fbs::crypto {
namespace {

constexpr std::size_t kLanes = DesBitslice::kLanes;
constexpr std::size_t kGroup = DesBitslice::kGroupLanes;

constexpr std::size_t kWords = DesBitslice::kWords;
using fbs::testing::transpose64;

TEST(DesBitslice, Transpose64IsInvolutionAndMovesBits) {
  util::SplitMix64 rng(101);
  std::uint64_t m[kGroup];
  std::uint64_t orig[kGroup];
  for (std::size_t i = 0; i < kGroup; ++i) m[i] = orig[i] = rng.next_u64();
  transpose64(m);
  // M'(r, c) == M(c, r) under MSB-first column numbering.
  for (std::size_t r = 0; r < kGroup; ++r) {
    for (std::size_t c = 0; c < kGroup; ++c) {
      EXPECT_EQ((m[r] >> (63 - c)) & 1, (orig[c] >> (63 - r)) & 1)
          << "r=" << r << " c=" << c;
    }
  }
  transpose64(m);
  for (std::size_t i = 0; i < kGroup; ++i) EXPECT_EQ(m[i], orig[i]);
}

TEST(DesBitslice, TransposeMatchesOneTileOracleOnRandomTiles) {
  // The engine's transpose runs the swap network on all kWords tiles at
  // once: each 64-row tile must come out as the one-tile oracle transposes
  // it, and a second run must restore it.
  util::SplitMix64 rng(108);
  for (int trial = 0; trial < 50; ++trial) {
    std::uint64_t m[kLanes];
    std::uint64_t want[kLanes];
    for (std::size_t i = 0; i < kLanes; ++i) {
      // Sparse and dense rows as well as uniform ones.
      const std::uint64_t v = rng.next_u64();
      m[i] = want[i] = trial % 3 == 0   ? v & rng.next_u64() & rng.next_u64()
                       : trial % 3 == 1 ? v | rng.next_u64()
                                        : v;
    }
    const std::vector<std::uint64_t> orig(m, m + kLanes);
    for (std::size_t w = 0; w < kWords; ++w) transpose64(want + w * kGroup);
    DesBitslice::transpose(m);
    for (std::size_t i = 0; i < kLanes; ++i)
      ASSERT_EQ(m[i], want[i]) << "trial " << trial << " tile " << i / kGroup
                               << " row " << i % kGroup;
    DesBitslice::transpose(m);
    for (std::size_t i = 0; i < kLanes; ++i) ASSERT_EQ(m[i], orig[i]);
  }
}

TEST(DesBitslice, KeyScheduleMatchesReference) {
  util::SplitMix64 rng(102);
  for (int iter = 0; iter < 20; ++iter) {
    const util::Bytes key = rng.next_bytes(8);
    const DesReference ref(key);
    const auto ks = Des(key).round_keys();
    for (int round = 0; round < 16; ++round) {
      EXPECT_EQ(ks[static_cast<std::size_t>(round)],
                ref.subkeys()[static_cast<std::size_t>(round)]);
    }
  }
}

TEST(DesBitslice, BroadcastKeyMatchesReferenceBothDirections) {
  util::SplitMix64 rng(103);
  for (int iter = 0; iter < 8; ++iter) {
    const util::Bytes key = rng.next_bytes(8);
    const DesReference ref(key);
    DesBitslice bs;
    bs.set_all_lanes(Des(key).round_keys());

    // The reference encrypts and the engine decrypts, so every lane must
    // come back to its plaintext.
    std::uint64_t blocks[kLanes];
    std::uint64_t pt[kLanes];
    for (std::size_t i = 0; i < kLanes; ++i) {
      pt[i] = rng.next_u64();
      blocks[i] = ref.encrypt_block(pt[i]);
    }
    bs.decrypt(blocks);
    for (std::size_t i = 0; i < kLanes; ++i) {
      ASSERT_EQ(blocks[i], pt[i]) << "lane " << i;
    }
  }
}

TEST(DesBitslice, AllLanesDistinctKeysBulkLoad) {
  util::SplitMix64 rng(104);
  std::array<DesRoundKeys, kLanes> schedules;
  std::array<const DesRoundKeys*, kLanes> ptrs;
  std::array<util::Bytes, kLanes> keys;
  for (std::size_t i = 0; i < kLanes; ++i) {
    keys[i] = rng.next_bytes(8);
    schedules[i] = Des(keys[i]).round_keys();
    ptrs[i] = &schedules[i];
  }
  DesBitslice bs;
  bs.set_lanes(ptrs);

  std::uint64_t blocks[kLanes];
  std::uint64_t ct[kLanes];
  for (std::size_t i = 0; i < kLanes; ++i) blocks[i] = ct[i] = rng.next_u64();
  bs.decrypt(blocks);
  for (std::size_t i = 0; i < kLanes; ++i) {
    const DesReference ref(keys[i]);
    ASSERT_EQ(blocks[i], ref.decrypt_block(ct[i])) << "lane " << i;
  }
}

TEST(DesBitslice, SetLaneRekeysOneLaneOnly) {
  util::SplitMix64 rng(105);
  const util::Bytes base_key = rng.next_bytes(8);
  const util::Bytes other_key = rng.next_bytes(8);
  DesBitslice bs;
  bs.set_all_lanes(Des(base_key).round_keys());
  const auto other = Des(other_key).round_keys();
  bs.set_lane(7, other);
  bs.set_lane(63, other);

  std::uint64_t blocks[kLanes];
  std::uint64_t ct[kLanes];
  for (std::size_t i = 0; i < kLanes; ++i) blocks[i] = ct[i] = rng.next_u64();
  bs.decrypt(blocks);
  const DesReference base_ref(base_key);
  const DesReference other_ref(other_key);
  for (std::size_t i = 0; i < kLanes; ++i) {
    const DesReference& ref = (i == 7 || i == 63) ? other_ref : base_ref;
    ASSERT_EQ(blocks[i], ref.decrypt_block(ct[i])) << "lane " << i;
  }
}

TEST(DesBitslice, MonteCarloChainPerLane) {
  // NIST MCT shape: iterate the cipher on its own output 1000 times per
  // lane, distinct keys, compare the final value lane by lane. Any
  // cross-lane leak or wiring error diverges within a few iterations.
  util::SplitMix64 rng(106);
  std::array<DesRoundKeys, kLanes> schedules;
  std::array<const DesRoundKeys*, kLanes> ptrs;
  std::array<util::Bytes, kLanes> keys;
  for (std::size_t i = 0; i < kLanes; ++i) {
    keys[i] = rng.next_bytes(8);
    schedules[i] = Des(keys[i]).round_keys();
    ptrs[i] = &schedules[i];
  }
  DesBitslice bs;
  bs.set_lanes(ptrs);

  std::uint64_t blocks[kLanes];
  std::uint64_t seed[kLanes];
  for (std::size_t i = 0; i < kLanes; ++i) blocks[i] = seed[i] = rng.next_u64();
  for (int iter = 0; iter < 1000; ++iter) bs.decrypt(blocks);
  for (std::size_t i = 0; i < kLanes; ++i) {
    const DesReference ref(keys[i]);
    std::uint64_t v = seed[i];
    for (int iter = 0; iter < 1000; ++iter) v = ref.decrypt_block(v);
    ASSERT_EQ(blocks[i], v) << "lane " << i;
  }
}

TEST(DesBitslice, AgreesWithTableDrivenCore) {
  // Tie all three implementations together: bitslice vs the production
  // table-driven Des (itself tested against DesReference round by round).
  util::SplitMix64 rng(107);
  const util::Bytes key = rng.next_bytes(8);
  const Des des(key);
  DesBitslice bs;
  bs.set_all_lanes(Des(key).round_keys());
  std::uint64_t blocks[kLanes];
  std::uint64_t pt[kLanes];
  for (std::size_t i = 0; i < kLanes; ++i) blocks[i] = pt[i] = rng.next_u64();
  bs.decrypt(blocks);
  for (std::size_t i = 0; i < kLanes; ++i) {
    ASSERT_EQ(blocks[i], des.decrypt_block(pt[i])) << "lane " << i;
  }
}

}  // namespace
}  // namespace fbs::crypto
