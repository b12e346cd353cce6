// MegaflowPolicy: the budgeted flat-hash + timer-wheel FAM (DESIGN.md 5i).
// Covers the paper-semantics contract (exact five-tuple identity, the shared
// flow_expired() boundary at exactly THRESHOLD), the soft-state contracts the
// control plane relies on (point expiry never moves sweeper counters; sweep
// cost tracks expirations via lazy re-arm), and the budget contract (hard
// flow cap with eviction pressure counted, zero heap growth in steady state).
#include "fbs/megaflow.hpp"

#include <gtest/gtest.h>

#include "util/rng.hpp"

namespace fbs::core {
namespace {

Datagram datagram_for(std::uint16_t sport, std::uint16_t dport,
                      std::uint8_t proto = 6, std::uint32_t saddr = 0x0A000001,
                      std::uint32_t daddr = 0x0A000002) {
  Datagram d;
  d.attrs.protocol = proto;
  d.attrs.source_address = saddr;
  d.attrs.source_port = sport;
  d.attrs.destination_address = daddr;
  d.attrs.destination_port = dport;
  return d;
}

class MegaflowTest : public ::testing::Test {
 protected:
  util::SplitMix64 rng_{42};
  SflAllocator alloc_{rng_};
  MegaflowPolicy policy_{64, util::seconds(600), alloc_};
};

TEST_F(MegaflowTest, SameTupleSameFlow) {
  const auto a = policy_.map(datagram_for(1000, 23), util::seconds(0));
  const auto b = policy_.map(datagram_for(1000, 23), util::seconds(1));
  EXPECT_TRUE(a.new_flow);
  EXPECT_FALSE(b.new_flow);
  EXPECT_EQ(a.sfl, b.sfl);
  EXPECT_EQ(policy_.stats().mapper_hits, 1u);
  EXPECT_EQ(policy_.live_flows(), 1u);
}

TEST_F(MegaflowTest, ExactMatchingNeverEvictsOnCollision) {
  // Unlike the direct-mapped FiveTuplePolicy (footnote 11), distinct tuples
  // can never displace each other while the budget holds.
  for (std::uint16_t p = 0; p < 60; ++p)
    (void)policy_.map(datagram_for(1000 + p, 23), util::seconds(0));
  EXPECT_EQ(policy_.stats().hash_evictions, 0u);
  EXPECT_EQ(policy_.stats().flows_created, 60u);
  EXPECT_EQ(policy_.live_flows(), 60u);
  for (std::uint16_t p = 0; p < 60; ++p) {
    const auto m = policy_.map(datagram_for(1000 + p, 23), util::seconds(1));
    EXPECT_FALSE(m.new_flow) << p;
  }
}

// Satellite: the one inline staleness predicate, at the boundary. A gap of
// exactly THRESHOLD continues the flow; one microsecond more ends it.
TEST_F(MegaflowTest, GapExactlyAtThresholdContinuesFlow) {
  const auto a = policy_.map(datagram_for(1000, 23), util::seconds(0));
  const auto b = policy_.map(datagram_for(1000, 23), util::seconds(600));
  EXPECT_FALSE(b.new_flow);
  EXPECT_EQ(a.sfl, b.sfl);
  EXPECT_EQ(policy_.stats().mapper_expirations, 0u);
}

TEST_F(MegaflowTest, GapBeyondThresholdStartsNewFlowInPlace) {
  const auto a = policy_.map(datagram_for(1000, 23), util::seconds(0));
  const auto b =
      policy_.map(datagram_for(1000, 23), util::seconds(600) + 1);
  EXPECT_TRUE(b.new_flow);
  EXPECT_NE(a.sfl, b.sfl);
  EXPECT_EQ(policy_.stats().mapper_expirations, 1u);
  EXPECT_EQ(policy_.live_flows(), 1u);  // slot reused, not leaked
}

// The sweeper draws the conversation boundary at the same place the mapper
// does, because both call flow_expired(). tick_shift=0 makes wheel ticks
// 1 us so the boundary is exact; a 1 ms threshold keeps advance() cheap.
TEST(MegaflowSweep, SweepBoundaryMatchesMapper) {
  util::SplitMix64 rng(20);
  SflAllocator alloc(rng);
  MegaflowPolicy policy(64, /*threshold=*/1000, alloc, /*tick_shift=*/0);
  (void)policy.map(datagram_for(1000, 23), 0);
  EXPECT_EQ(policy.sweep(1000), 0u);  // gap exactly threshold: still live
  EXPECT_EQ(policy.live_flows(), 1u);
  EXPECT_EQ(policy.sweep(1001), 1u);  // one microsecond more: expired
  EXPECT_EQ(policy.live_flows(), 0u);
  EXPECT_EQ(policy.stats().sweeper_expirations, 1u);
}

// A mapper hit does not touch the wheel; the timer fires at the stale
// deadline, notices the activity, and re-arms for the true one.
TEST(MegaflowSweep, LazyRearmKeepsActiveFlowAlive) {
  util::SplitMix64 rng(21);
  SflAllocator alloc(rng);
  MegaflowPolicy policy(64, /*threshold=*/1000, alloc, /*tick_shift=*/0);
  (void)policy.map(datagram_for(1000, 23), 0);
  (void)policy.map(datagram_for(1000, 23), 500);  // hit: wheel untouched
  // Old deadline (0 + threshold + 1) passes: timer fires but must re-arm.
  EXPECT_EQ(policy.sweep(1001), 0u);
  EXPECT_EQ(policy.live_flows(), 1u);
  const MegaflowStats* m = policy.mega_stats();
  ASSERT_NE(m, nullptr);
  EXPECT_GE(m->wheel_fires, 1u);
  // True deadline (500 + threshold + 1) passes: now it expires.
  EXPECT_EQ(policy.sweep(1501), 1u);
  EXPECT_EQ(policy.live_flows(), 0u);
}

// Satellite: point expiry is a keyed erase. It terminates exactly one flow
// and moves no sweeper statistics.
TEST_F(MegaflowTest, PointExpiryDoesNotPerturbSweeperStats) {
  const auto a = policy_.map(datagram_for(1000, 23), util::seconds(0));
  (void)policy_.map(datagram_for(2000, 23), util::seconds(0));

  policy_.expire_flow(datagram_for(1000, 23).attrs);
  EXPECT_EQ(policy_.stats().sweeper_expirations, 0u);
  EXPECT_EQ(policy_.stats().mapper_expirations, 0u);
  EXPECT_EQ(policy_.live_flows(), 1u);
  EXPECT_EQ(policy_.find(datagram_for(1000, 23).attrs), nullptr);
  EXPECT_NE(policy_.find(datagram_for(2000, 23).attrs), nullptr);

  // The rekeyed flow restarts with a fresh sfl (Section 5.2's rekeying hook).
  const auto a2 = policy_.map(datagram_for(1000, 23), util::seconds(1));
  EXPECT_TRUE(a2.new_flow);
  EXPECT_NE(a2.sfl, a.sfl);

  // The sweeper later counts only what it expired itself: the survivor and
  // the restarted flow, not the point-expired one.
  EXPECT_EQ(policy_.sweep(util::seconds(700)), 2u);
  EXPECT_EQ(policy_.stats().sweeper_expirations, 2u);
}

TEST_F(MegaflowTest, ExpireFlowOnAbsentTupleIsNoOp) {
  policy_.expire_flow(datagram_for(7, 7).attrs);
  EXPECT_EQ(policy_.live_flows(), 0u);
  EXPECT_EQ(policy_.stats().sweeper_expirations, 0u);
}

TEST_F(MegaflowTest, FindExposesLiveEntry) {
  (void)policy_.map(datagram_for(1000, 23), util::seconds(5));
  const FlowStateEntry* e = policy_.find(datagram_for(1000, 23).attrs);
  ASSERT_NE(e, nullptr);
  EXPECT_TRUE(e->valid);
  EXPECT_EQ(e->created, util::seconds(5));
  EXPECT_EQ(e->datagrams, 1u);
  EXPECT_EQ(policy_.find(datagram_for(9, 9).attrs), nullptr);
}

TEST_F(MegaflowTest, ActiveFlowsCountsOnlyFresh) {
  (void)policy_.map(datagram_for(1000, 23), util::seconds(0));
  (void)policy_.map(datagram_for(2000, 23), util::seconds(500));
  EXPECT_EQ(policy_.active_flows(util::seconds(500)), 2u);
  EXPECT_EQ(policy_.active_flows(util::seconds(601)), 1u);
  EXPECT_EQ(policy_.active_flows(util::seconds(1101)), 0u);
}

TEST(MegaflowBudget, EvictionPressureAtTheCap) {
  util::SplitMix64 rng(7);
  SflAllocator alloc(rng);
  MegaflowPolicy policy(8, util::seconds(600), alloc);

  // 20 distinct, all-active flows through a budget of 8: every admission
  // past the cap must evict a (live) victim and count the pressure.
  for (std::uint16_t i = 0; i < 20; ++i)
    (void)policy.map(datagram_for(1000 + i, 23), util::seconds(i));
  EXPECT_EQ(policy.live_flows(), 8u);
  EXPECT_EQ(policy.stats().flows_created, 20u);
  const MegaflowStats* m = policy.mega_stats();
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->budget_evictions, 12u);
  EXPECT_EQ(m->peak_live_flows, 8u);
  EXPECT_EQ(policy.stats().sweeper_expirations, 0u);  // victims were live

  // Eviction is soft-state-safe: a datagram for an evicted flow just starts
  // a fresh flow.
  const auto again = policy.map(datagram_for(1000, 23), util::seconds(30));
  EXPECT_TRUE(again.new_flow);
  EXPECT_EQ(policy.live_flows(), 8u);
}

TEST(MegaflowBudget, StaleFlowsReclaimedBeforeLiveOnes) {
  util::SplitMix64 rng(8);
  SflAllocator alloc(rng);
  MegaflowPolicy policy(4, util::seconds(10), alloc);
  for (std::uint16_t i = 0; i < 4; ++i)
    (void)policy.map(datagram_for(100 + i, 23), util::seconds(0));
  // Budget full and every resident flow is stale: admission reclaims one as
  // an ordinary (pulled-forward) expiry, not a budget eviction.
  (void)policy.map(datagram_for(999, 23), util::seconds(60));
  const MegaflowStats* m = policy.mega_stats();
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->budget_evictions, 0u);
  EXPECT_EQ(policy.stats().sweeper_expirations, 1u);
  EXPECT_EQ(policy.live_flows(), 4u);
}

TEST(MegaflowBudget, SteadyStateNeverGrowsTheHeap) {
  util::SplitMix64 rng(9);
  SflAllocator alloc(rng);
  MegaflowPolicy policy(64, util::seconds(10), alloc);
  // Warm-up to fill the table, then note the footprint.
  for (std::uint16_t i = 0; i < 64; ++i)
    (void)policy.map(datagram_for(1000 + i, 23), util::seconds(0));
  const std::size_t resident = policy.mega_stats()->resident_bytes;
  // Heavy churn: new tuples arriving while old ones expire, plus periodic
  // sweeps -- maximal insert/erase traffic on map, slab, and wheel.
  for (int round = 1; round <= 50; ++round) {
    const util::TimeUs now = util::seconds(round * 5);
    for (std::uint16_t i = 0; i < 32; ++i)
      (void)policy.map(
          datagram_for(static_cast<std::uint16_t>(2000 + round * 32 + i), 23),
          now);
    (void)policy.sweep(now);
  }
  const MegaflowStats* m = policy.mega_stats();
  EXPECT_EQ(m->map_rehashes, 0u);
  EXPECT_EQ(m->slab_grows, 0u);
  EXPECT_EQ(m->resident_bytes, resident);
  EXPECT_LE(policy.live_flows(), 64u);
}

// Sweep work scales with what expired, not with what is stored: the wheel's
// touched-bucket/fired-node counter stays near the expiry count while a
// full-table scan would have touched every resident flow each sweep.
TEST(MegaflowBudget, SweepCostTracksExpirationsNotTableSize) {
  util::SplitMix64 rng(10);
  SflAllocator alloc(rng);
  // Default tick shift (~1 s ticks): sweep only walks ~sweep-period buckets.
  MegaflowPolicy policy(20000, util::seconds(600), alloc);
  // 10k long-lived flows refreshed continuously...
  for (std::uint16_t i = 0; i < 10000u; ++i)
    (void)policy.map(datagram_for(i, 23), util::seconds(0));
  std::uint64_t expired_total = 0;
  for (int round = 1; round <= 70; ++round) {
    const util::TimeUs now = util::seconds(round * 10);
    for (std::uint16_t i = 0; i < 10000u; ++i)
      (void)policy.map(datagram_for(i, 23), now);
    // ...plus a small short-lived population that does expire (created in
    // the first rounds, idle past threshold inside the 700 s horizon).
    for (std::uint16_t i = 0; i < 20; ++i)
      (void)policy.map(datagram_for(static_cast<std::uint16_t>(30000 + round),
                                    static_cast<std::uint16_t>(i), 17),
                       now);
    expired_total += policy.sweep(now);
  }
  const MegaflowStats* m = policy.mega_stats();
  EXPECT_GT(expired_total, 0u);
  // 70 sweeps over 10k+ resident flows: a scan-based sweeper touches 700k
  // entries. The wheel's total touch count (buckets visited + timers fired)
  // must stay an order of magnitude below that -- bounded by elapsed ticks
  // plus roughly one lazy re-arm fire per flow per threshold period, not by
  // residency per sweep.
  EXPECT_LT(m->sweep_touched, 60000u);
}

TEST_F(MegaflowTest, ClearDropsSoftStateButKeepsCapacity) {
  for (std::uint16_t i = 0; i < 50; ++i)
    (void)policy_.map(datagram_for(1000 + i, 23), util::seconds(0));
  policy_.clear();
  EXPECT_EQ(policy_.live_flows(), 0u);
  EXPECT_EQ(policy_.active_flows(util::seconds(0)), 0u);
  EXPECT_EQ(policy_.find(datagram_for(1000, 23).attrs), nullptr);
  // Restart: fresh flows, still no heap growth past the reservation.
  for (std::uint16_t i = 0; i < 50; ++i) {
    const auto m = policy_.map(datagram_for(1000 + i, 23), util::seconds(1));
    EXPECT_TRUE(m.new_flow);
  }
  EXPECT_EQ(policy_.mega_stats()->slab_grows, 0u);
  EXPECT_EQ(policy_.mega_stats()->map_rehashes, 0u);
}

TEST_F(MegaflowTest, NameDescribesBudgetAndThreshold) {
  EXPECT_NE(policy_.name().find("megaflow"), std::string::npos);
  EXPECT_NE(policy_.name().find("600"), std::string::npos);
}

TEST_F(MegaflowTest, MegaStatsAvailableViaBaseInterface) {
  FlowPolicy& base = policy_;
  EXPECT_NE(base.mega_stats(), nullptr);
  util::SplitMix64 rng(11);
  SflAllocator alloc(rng);
  FiveTuplePolicy paper(16, util::seconds(600), alloc);
  EXPECT_EQ(static_cast<FlowPolicy&>(paper).mega_stats(), nullptr);
}

}  // namespace
}  // namespace fbs::core
