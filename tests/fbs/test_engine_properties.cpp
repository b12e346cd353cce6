// Property-style sweeps over the protocol engine: payload sizes, suite/key
// independence across peers, clock skew, confounder uniqueness, and
// recovery behaviour around certificate-directory failures.
#include <gtest/gtest.h>

#include <set>

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

class PayloadSweep
    : public ::testing::TestWithParam<std::tuple<std::size_t, bool>> {};

TEST_P(PayloadSweep, RoundTripAtEverySize) {
  const auto [size, secret] = GetParam();
  TestWorld world(size * 2 + secret);
  auto& a = world.add_node("a", "10.0.0.1");
  auto& b = world.add_node("b", "10.0.0.2");
  FbsEndpoint sender(a.principal, FbsConfig{}, *a.keys, world.clock,
                     world.rng);
  FbsEndpoint receiver(b.principal, FbsConfig{}, *b.keys, world.clock,
                       world.rng);

  const util::Bytes body = world.rng.next_bytes(size);
  const auto wire = protect(sender,
      datagram(a.principal, b.principal, body), secret);
  ASSERT_TRUE(wire.has_value());
  auto outcome = unprotect(receiver, a.principal, *wire);
  ASSERT_TRUE(std::holds_alternative<ReceivedDatagram>(outcome));
  EXPECT_EQ(std::get<ReceivedDatagram>(outcome).datagram.body, body);
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, PayloadSweep,
    ::testing::Combine(::testing::Values(0u, 1u, 7u, 8u, 9u, 63u, 64u, 65u,
                                         1408u, 8192u, 65536u),
                       ::testing::Bool()));

TEST(EngineProperties, OakleyGroup2KeyingAgrees) {
  // Full-strength 1024-bit group end to end (slow; one test only).
  TestWorld world(51, crypto::oakley_group2());
  auto& a = world.add_node("a", "10.0.0.1");
  auto& b = world.add_node("b", "10.0.0.2");
  FbsEndpoint sender(a.principal, FbsConfig{}, *a.keys, world.clock,
                     world.rng);
  FbsEndpoint receiver(b.principal, FbsConfig{}, *b.keys, world.clock,
                       world.rng);
  const auto wire = protect(sender,
      datagram(a.principal, b.principal, util::to_bytes("1024-bit modp")),
      true);
  ASSERT_TRUE(wire.has_value());
  auto outcome = unprotect(receiver, a.principal, *wire);
  ASSERT_TRUE(std::holds_alternative<ReceivedDatagram>(outcome));
}

TEST(EngineProperties, ManyPeersIndependentKeys) {
  TestWorld world(52);
  auto& hub = world.add_node("hub", "10.0.0.1");
  FbsEndpoint sender(hub.principal, FbsConfig{}, *hub.keys, world.clock,
                     world.rng);
  // unique_ptr: the sharded endpoint owns mutexes and is pinned in place.
  std::vector<std::unique_ptr<FbsEndpoint>> receivers;
  std::vector<Principal> peers;
  for (int i = 0; i < 8; ++i) {
    auto& node = world.add_node("peer" + std::to_string(i),
                                "10.0.1." + std::to_string(i + 1));
    receivers.push_back(std::make_unique<FbsEndpoint>(
        node.principal, FbsConfig{}, *node.keys, world.clock, world.rng));
    peers.push_back(node.principal);
  }
  // One datagram to each peer; each receiver accepts its own and its own
  // only (cross-delivery must fail on the wrong pair key).
  std::vector<util::Bytes> wires;
  for (int i = 0; i < 8; ++i) {
    const auto wire = protect(sender,
        datagram(hub.principal, peers[i],
                 util::to_bytes("for peer " + std::to_string(i))),
        true);
    ASSERT_TRUE(wire.has_value());
    wires.push_back(*wire);
  }
  for (int i = 0; i < 8; ++i) {
    auto own = unprotect(*receivers[i], hub.principal, wires[i]);
    EXPECT_TRUE(std::holds_alternative<ReceivedDatagram>(own)) << i;
    auto crossed =
        unprotect(*receivers[(i + 1) % 8], hub.principal, wires[i]);
    EXPECT_TRUE(std::holds_alternative<ReceiveError>(crossed)) << i;
  }
}

TEST(EngineProperties, ConfounderNeverRepeatsOverManyDatagrams) {
  TestWorld world(53);
  auto& a = world.add_node("a", "10.0.0.1");
  world.add_node("b", "10.0.0.2");
  FbsEndpoint sender(a.principal, FbsConfig{}, *a.keys, world.clock,
                     world.rng);
  const Datagram d =
      datagram(a.principal, world["b"].principal, util::to_bytes("x"));
  std::set<std::uint32_t> confounders;
  constexpr int kDatagrams = 5000;
  for (int i = 0; i < kDatagrams; ++i) {
    const auto wire = protect(sender, d, false);
    confounders.insert(FbsHeaderView::parse(*wire)->confounder);
  }
  // Statistically random 32-bit values: collisions in 5000 draws are
  // possible but should be at most a couple (birthday bound ~0.3%).
  EXPECT_GE(confounders.size(), static_cast<std::size_t>(kDatagrams - 2));
}

TEST(EngineProperties, SenderClockSkewWithinWindowTolerated) {
  TestWorld world(54);
  auto& a = world.add_node("a", "10.0.0.1");
  auto& b = world.add_node("b", "10.0.0.2");
  // Sender's clock runs 4 minutes ahead of the receiver's.
  util::VirtualClock sender_clock(world.clock.now() + util::minutes(4));
  FbsEndpoint sender(a.principal, FbsConfig{}, *a.keys, sender_clock,
                     world.rng);
  FbsEndpoint receiver(b.principal, FbsConfig{}, *b.keys, world.clock,
                       world.rng);
  const auto wire = protect(sender,
      datagram(a.principal, b.principal, util::to_bytes("skewed")), false);
  auto outcome = unprotect(receiver, a.principal, *wire);
  EXPECT_TRUE(std::holds_alternative<ReceivedDatagram>(outcome));
}

TEST(EngineProperties, SenderClockSkewBeyondWindowRejected) {
  TestWorld world(55);
  auto& a = world.add_node("a", "10.0.0.1");
  auto& b = world.add_node("b", "10.0.0.2");
  util::VirtualClock sender_clock(world.clock.now() + util::minutes(7));
  FbsEndpoint sender(a.principal, FbsConfig{}, *a.keys, sender_clock,
                     world.rng);
  FbsEndpoint receiver(b.principal, FbsConfig{}, *b.keys, world.clock,
                       world.rng);
  const auto wire = protect(sender,
      datagram(a.principal, b.principal, util::to_bytes("too skewed")),
      false);
  auto outcome = unprotect(receiver, a.principal, *wire);
  ASSERT_TRUE(std::holds_alternative<ReceiveError>(outcome));
  EXPECT_EQ(std::get<ReceiveError>(outcome), ReceiveError::kStale);
}

TEST(EngineProperties, DirectoryOutageFailsClosedThenRecovers) {
  TestWorld world(56);
  auto& a = world.add_node("a", "10.0.0.1");
  auto& b = world.add_node("b", "10.0.0.2");
  FbsEndpoint sender(a.principal, FbsConfig{}, *a.keys, world.clock,
                     world.rng);
  const Datagram d =
      datagram(a.principal, b.principal, util::to_bytes("x"));

  // Outage before first contact: no certificate -> fail closed, and the
  // peer is negative-cached as unresolvable.
  const auto cert = *world.directory.fetch(b.principal.address);
  world.directory.revoke(b.principal.address);
  EXPECT_FALSE(protect(sender, d, true).has_value());
  EXPECT_EQ(sender.send_stats().key_unavailable, 1u);
  EXPECT_EQ(a.mkd->stats().negative_cache_inserts, 1u);

  // Directory comes back: while the negative-cache entry lives, sends still
  // fail without hammering the directory (upcall-storm protection)...
  world.directory.publish(cert);
  const auto fetches = a.mkd->stats().directory_fetches;
  EXPECT_FALSE(protect(sender, d, true).has_value());
  EXPECT_EQ(a.mkd->stats().directory_fetches, fetches);
  EXPECT_GE(a.mkd->stats().negative_cache_hits, 1u);

  // ...and once it expires, the next datagram succeeds -- no restart.
  world.clock.advance(a.mkd->retry_policy().negative_ttl);
  EXPECT_TRUE(protect(sender, d, true).has_value());
}

TEST(EngineProperties, MasterKeyCachedAcrossDirectoryOutage) {
  // Once the pair key is cached, a directory outage is invisible (soft
  // state degrades gracefully, it does not fail).
  TestWorld world(57);
  auto& a = world.add_node("a", "10.0.0.1");
  auto& b = world.add_node("b", "10.0.0.2");
  FbsEndpoint sender(a.principal, FbsConfig{}, *a.keys, world.clock,
                     world.rng);
  const Datagram d =
      datagram(a.principal, b.principal, util::to_bytes("x"));
  ASSERT_TRUE(protect(sender, d, true).has_value());  // primes MKC
  world.directory.revoke(b.principal.address);
  for (int i = 0; i < 5; ++i)
    EXPECT_TRUE(protect(sender, d, true).has_value());
}

TEST(EngineProperties, PerKindRejectionCountersMatchNamedFields) {
  TestWorld world(59);
  auto& a = world.add_node("a", "10.0.0.1");
  auto& b = world.add_node("b", "10.0.0.2");
  FbsEndpoint sender(a.principal, FbsConfig{}, *a.keys, world.clock,
                     world.rng);
  FbsEndpoint receiver(b.principal, FbsConfig{}, *b.keys, world.clock,
                       world.rng);
  auto wire = *protect(sender,
      datagram(a.principal, b.principal, util::to_bytes("payload")), false);
  wire.back() ^= 0x01;  // tamper with the body
  const auto outcome = unprotect(receiver, a.principal, wire);
  ASSERT_TRUE(std::holds_alternative<ReceiveError>(outcome));
  EXPECT_EQ(std::get<ReceiveError>(outcome), ReceiveError::kBadMac);

  const ReceiveStats& rs = receiver.receive_stats();
  EXPECT_EQ(rs.rejected_by(ReceiveError::kBadMac), 1u);
  EXPECT_EQ(rs.rejected_by(ReceiveError::kBadMac), rs.rejected_bad_mac);
  std::uint64_t by_kind_total = 0;
  for (std::size_t k = 0; k < kReceiveErrorKinds; ++k)
    by_kind_total += rs.by_kind[k];
  EXPECT_EQ(by_kind_total, rs.rejected());
}

TEST(EngineProperties, WireSizeIsDeterministicPerSuite) {
  TestWorld world(58);
  auto& a = world.add_node("a", "10.0.0.1");
  auto& b = world.add_node("b", "10.0.0.2");
  FbsEndpoint sender(a.principal, FbsConfig{}, *a.keys, world.clock,
                     world.rng);
  // Plain mode: overhead exactly header size, independent of content.
  for (std::size_t n : {0u, 13u, 100u}) {
    const auto wire = protect(sender,
        datagram(a.principal, b.principal, world.rng.next_bytes(n)), false);
    EXPECT_EQ(wire->size(), n + sender.header_overhead());
  }
  // Secret mode: header + padded body, never more than max_wire_overhead.
  for (std::size_t n : {0u, 13u, 100u}) {
    const auto wire = protect(sender,
        datagram(a.principal, b.principal, world.rng.next_bytes(n)), true);
    EXPECT_GT(wire->size(), n + sender.header_overhead());
    EXPECT_LE(wire->size(), n + sender.max_wire_overhead());
  }
}

TEST(EngineProperties, WireSizeMatchesTheSealedWireForEveryCipher) {
  // One padding rule (the block modes ECB and CBC pad, the stream modes do
  // not): the size admit's item predicts is the size the seal writes, and
  // the growth stays within max_wire_overhead.
  TestWorld world(59);
  auto& a = world.add_node("a", "10.0.0.1");
  auto& b = world.add_node("b", "10.0.0.2");
  WorkContext ctx;
  for (const auto cipher :
       {crypto::CipherAlgorithm::kNone, crypto::CipherAlgorithm::kDesCbc,
        crypto::CipherAlgorithm::kDesEcb, crypto::CipherAlgorithm::kDesCfb,
        crypto::CipherAlgorithm::kDesOfb,
        crypto::CipherAlgorithm::kDes3Ede}) {
    FbsConfig config;
    config.suite.cipher = cipher;
    FbsEndpoint sender(a.principal, config, *a.keys, world.clock, world.rng);
    for (const bool secret : {false, true}) {
      for (const std::size_t n : {0u, 1u, 7u, 8u, 1400u}) {
        const Datagram d =
            datagram(a.principal, b.principal, world.rng.next_bytes(n));
        SealItem item;
        ASSERT_TRUE(sender.admit(ctx, d, secret, item));
        util::Bytes wire;
        item.wire_out = &wire;
        const std::size_t predicted = FbsEndpoint::wire_size(item);
        sender.seal_burst_into(ctx, {&item, 1});
        EXPECT_EQ(wire.size(), predicted)
            << "cipher " << int(cipher) << " secret " << secret << " n " << n;
        EXPECT_LE(wire.size(), n + sender.max_wire_overhead())
            << "cipher " << int(cipher) << " secret " << secret << " n " << n;
      }
    }
  }
}

}  // namespace
}  // namespace fbs::core
