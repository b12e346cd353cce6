// Sharded flow-state domains: shard selection stability, per-shard caches
// and stats, and the aggregation accessors (tentpole of the shard-per-core
// refactor; see domain.hpp).
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "fbs/engine.hpp"
#include "support/protect.hpp"
#include "support/world.hpp"

namespace fbs::core {
namespace {

using testing::ReceivedDatagram;
using testing::protect;
using testing::unprotect;
using testing::TestWorld;

Datagram datagram(const Principal& src, const Principal& dst,
                  util::Bytes body, std::uint16_t sport = 7,
                  std::uint16_t dport = 9) {
  Datagram d;
  d.source = src;
  d.destination = dst;
  d.attrs.protocol = 17;
  d.attrs.source_address = src.ipv4().value;
  d.attrs.source_port = sport;
  d.attrs.destination_address = dst.ipv4().value;
  d.attrs.destination_port = dport;
  d.body = std::move(body);
  return d;
}

class DomainTest : public ::testing::Test {
 protected:
  DomainTest()
      : world_(808),
        a_(world_.add_node("a", "10.0.0.1")),
        b_(world_.add_node("b", "10.0.0.2")) {}

  FbsConfig sharded(std::size_t shards) {
    FbsConfig config;
    config.shards = shards;
    return config;
  }

  TestWorld world_;
  TestWorld::Node& a_;
  TestWorld::Node& b_;
};

TEST_F(DomainTest, ShardCountMatchesConfigAndZeroMeansOne) {
  FbsEndpoint one(a_.principal, sharded(0), *a_.keys, world_.clock,
                  world_.rng);
  EXPECT_EQ(one.shard_count(), 1u);
  FbsEndpoint eight(a_.principal, sharded(8), *a_.keys, world_.clock,
                    world_.rng);
  EXPECT_EQ(eight.shard_count(), 8u);
}

TEST_F(DomainTest, DistinctFlowsSpreadAcrossShards) {
  FbsEndpoint sender(a_.principal, sharded(8), *a_.keys, world_.clock,
                     world_.rng);
  std::set<std::size_t> used;
  for (std::uint16_t port = 1; port <= 64; ++port)
    used.insert(sender.send_shard_of(
        datagram(a_.principal, b_.principal, util::to_bytes("x"), port)
            .attrs));
  // 64 random-ish five-tuples over 8 shards: all empty except one would
  // mean the hash ignores the attributes.
  EXPECT_GT(used.size(), 4u);
}

TEST_F(DomainTest, EveryDatagramOfAFlowLandsOnOneShard) {
  FbsEndpoint sender(a_.principal, sharded(8), *a_.keys, world_.clock,
                     world_.rng);
  FbsEndpoint receiver(b_.principal, sharded(8), *b_.keys, world_.clock,
                       world_.rng);
  const Datagram d =
      datagram(a_.principal, b_.principal, util::to_bytes("steady"));
  const std::size_t send_shard = sender.send_shard_of(d.attrs);
  std::set<std::size_t> recv_shards;
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(sender.send_shard_of(d.attrs), send_shard);
    const auto wire = protect(sender, d, true);
    ASSERT_TRUE(wire.has_value());
    recv_shards.insert(receiver.recv_shard_of_wire(a_.principal, *wire));
    ASSERT_TRUE(std::holds_alternative<ReceivedDatagram>(
        unprotect(receiver, a_.principal, *wire)));
  }
  // Same flow -> same sfl -> same receive shard, every time.
  EXPECT_EQ(recv_shards.size(), 1u);
}

TEST_F(DomainTest, PerShardStatsSumToAggregates) {
  FbsEndpoint sender(a_.principal, sharded(4), *a_.keys, world_.clock,
                     world_.rng);
  FbsEndpoint receiver(b_.principal, sharded(4), *b_.keys, world_.clock,
                       world_.rng);
  for (std::uint16_t port = 1; port <= 32; ++port) {
    const auto wire = protect(sender,
        datagram(a_.principal, b_.principal, util::to_bytes("s"), port),
        true);
    ASSERT_TRUE(wire.has_value());
    ASSERT_TRUE(std::holds_alternative<ReceivedDatagram>(
        unprotect(receiver, a_.principal, *wire)));
  }

  std::uint64_t sent = 0, accepted = 0, derived = 0;
  std::set<std::size_t> send_shards_used;
  for (std::size_t s = 0; s < sender.shard_count(); ++s) {
    std::lock_guard<std::mutex> lock(sender.shard(s).mu);
    if (sender.shard(s).send_stats.datagrams > 0) send_shards_used.insert(s);
    sent += sender.shard(s).send_stats.datagrams;
    derived += sender.shard(s).send_stats.flow_keys_derived;
  }
  for (std::size_t s = 0; s < receiver.shard_count(); ++s) {
    std::lock_guard<std::mutex> lock(receiver.shard(s).mu);
    accepted += receiver.shard(s).receive_stats.accepted;
  }
  EXPECT_EQ(sent, 32u);
  EXPECT_EQ(sender.send_stats().datagrams, 32u);
  EXPECT_EQ(derived, sender.send_stats().flow_keys_derived);
  EXPECT_EQ(accepted, 32u);
  EXPECT_EQ(receiver.receive_stats().accepted, 32u);
  EXPECT_GT(send_shards_used.size(), 1u);  // the traffic really sharded
}

TEST_F(DomainTest, FlowCryptoContextReusedWithinItsShard) {
  FbsEndpoint sender(a_.principal, sharded(8), *a_.keys, world_.clock,
                     world_.rng);
  constexpr std::uint16_t kFlows = 16;
  for (int round = 0; round < 5; ++round)
    for (std::uint16_t port = 1; port <= kFlows; ++port)
      ASSERT_TRUE(protect(sender,
                          datagram(a_.principal, b_.principal,
                                   util::to_bytes("r"), port),
                          true)
                      .has_value());
  // One derivation per flow, ever: the cached FlowCryptoContext in the
  // flow's own shard serves all later datagrams.
  EXPECT_EQ(sender.send_stats().flow_keys_derived, kFlows);
  EXPECT_EQ(sender.send_stats().datagrams, kFlows * 5u);
}

TEST_F(DomainTest, SplitPathCachesEvictPerShard) {
  // Split FAM+TFKC path with a tiny per-shard TFKC: cycling far more flows
  // than fit must show capacity/collision misses in the 3C taxonomy, and
  // the aggregate must equal the per-shard sum.
  FbsConfig config = sharded(4);
  config.combined_fst_tfkc = false;
  config.tfkc_size = 4;
  config.fst_size = 512;
  FbsEndpoint sender(a_.principal, config, *a_.keys, world_.clock,
                     world_.rng);
  for (int round = 0; round < 3; ++round)
    for (std::uint16_t port = 1; port <= 64; ++port)
      ASSERT_TRUE(protect(sender,
                          datagram(a_.principal, b_.principal,
                                   util::to_bytes("e"), port),
                          true)
                      .has_value());
  const CacheStats& agg = sender.tfkc_stats();
  EXPECT_GT(agg.cold_misses, 0u);
  EXPECT_GT(agg.capacity_misses + agg.collision_misses, 0u);
  std::uint64_t hits = 0, cold = 0, cap = 0, coll = 0;
  for (std::size_t s = 0; s < sender.shard_count(); ++s) {
    std::lock_guard<std::mutex> lock(sender.shard(s).mu);
    const CacheStats& stats = sender.shard(s).tfkc.stats();
    hits += stats.hits;
    cold += stats.cold_misses;
    cap += stats.capacity_misses;
    coll += stats.collision_misses;
  }
  const CacheStats& again = sender.tfkc_stats();
  EXPECT_EQ(hits, again.hits);
  EXPECT_EQ(cold, again.cold_misses);
  EXPECT_EQ(cap, again.capacity_misses);
  EXPECT_EQ(coll, again.collision_misses);
}

TEST_F(DomainTest, ReplayRejectionIsPerFlowUnderSharding) {
  FbsConfig config = sharded(8);
  config.strict_replay = true;
  FbsEndpoint sender(a_.principal, sharded(8), *a_.keys, world_.clock,
                     world_.rng);
  FbsEndpoint receiver(b_.principal, config, *b_.keys, world_.clock,
                       world_.rng);
  const auto wire = protect(sender,
      datagram(a_.principal, b_.principal, util::to_bytes("once")), true);
  ASSERT_TRUE(wire.has_value());
  EXPECT_TRUE(std::holds_alternative<ReceivedDatagram>(
      unprotect(receiver, a_.principal, *wire)));
  const auto replay = unprotect(receiver, a_.principal, *wire);
  ASSERT_TRUE(std::holds_alternative<ReceiveError>(replay));
  EXPECT_EQ(std::get<ReceiveError>(replay), ReceiveError::kReplay);

  // The rejection is recorded in the flow's own shard, nowhere else.
  const std::size_t shard = receiver.recv_shard_of_wire(a_.principal, *wire);
  for (std::size_t s = 0; s < receiver.shard_count(); ++s) {
    std::lock_guard<std::mutex> lock(receiver.shard(s).mu);
    EXPECT_EQ(receiver.shard(s).receive_stats.rejected_replay,
              s == shard ? 1u : 0u)
        << "shard " << s;
  }
}

TEST_F(DomainTest, RekeyTargetsTheFlowsOwnShard) {
  FbsEndpoint sender(a_.principal, sharded(8), *a_.keys, world_.clock,
                     world_.rng);
  const Datagram d =
      datagram(a_.principal, b_.principal, util::to_bytes("k"));
  const auto before = protect(sender, d, true);
  ASSERT_TRUE(before.has_value());
  EXPECT_EQ(sender.send_stats().flow_keys_derived, 1u);
  ASSERT_TRUE(protect(sender, d, true).has_value());
  EXPECT_EQ(sender.send_stats().flow_keys_derived, 1u);  // cached

  sender.rekey(d.attrs);
  const auto after = protect(sender, d, true);
  ASSERT_TRUE(after.has_value());
  EXPECT_EQ(sender.send_stats().flow_keys_derived, 2u);  // fresh key
  EXPECT_NE(FbsHeaderView::parse(*before)->sfl,
            FbsHeaderView::parse(*after)->sfl);
}

TEST_F(DomainTest, WorkContextOverloadsRoundTrip) {
  FbsEndpoint sender(a_.principal, sharded(4), *a_.keys, world_.clock,
                     world_.rng);
  FbsEndpoint receiver(b_.principal, sharded(4), *b_.keys, world_.clock,
                       world_.rng);
  WorkContext send_ctx, recv_ctx;
  util::Bytes wire, body;
  for (std::uint16_t port = 1; port <= 8; ++port) {
    const util::Bytes payload = world_.rng.next_bytes(100 + port);
    const Datagram d =
        datagram(a_.principal, b_.principal, payload, port);
    ASSERT_TRUE(sender.protect_into(send_ctx, d, true, wire));
    const auto outcome =
        receiver.unprotect_into(recv_ctx, a_.principal, wire, body);
    ASSERT_TRUE(std::holds_alternative<ReceivedInfo>(outcome)) << port;
    EXPECT_EQ(body, payload);
  }
}

TEST_F(DomainTest, ClearSoftStateWipesEveryShard) {
  FbsEndpoint sender(a_.principal, sharded(8), *a_.keys, world_.clock,
                     world_.rng);
  for (std::uint16_t port = 1; port <= 16; ++port)
    ASSERT_TRUE(protect(sender,
                        datagram(a_.principal, b_.principal,
                                 util::to_bytes("c"), port),
                        true)
                    .has_value());
  const std::uint64_t derived = sender.send_stats().flow_keys_derived;
  EXPECT_EQ(derived, 16u);
  sender.clear_soft_state();
  // Every flow re-derives: no shard kept a stale combined entry.
  for (std::uint16_t port = 1; port <= 16; ++port)
    ASSERT_TRUE(protect(sender,
                        datagram(a_.principal, b_.principal,
                                 util::to_bytes("c"), port),
                        true)
                    .has_value());
  EXPECT_EQ(sender.send_stats().flow_keys_derived, derived + 16u);
}

}  // namespace
}  // namespace fbs::core
