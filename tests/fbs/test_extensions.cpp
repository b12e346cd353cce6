// Tests for the paper's "policy" features realized as engine extensions:
// key-lifetime rekeying (Section 5.2), raw-IP host-level flows (footnote
// 10), and the NullMac NOP configuration used by the Figure 8 bench.
#include <gtest/gtest.h>

#include "fbs/ip_map.hpp"
#include "net/simnet.hpp"
#include "net/icmp.hpp"
#include "support/protect.hpp"
#include "support/world.hpp"

namespace fbs::core {
namespace {

using testing::ReceivedDatagram;
using testing::protect;
using testing::unprotect;
using testing::TestWorld;

Datagram datagram(const Principal& src, const Principal& dst,
                  std::size_t size) {
  Datagram d;
  d.source = src;
  d.destination = dst;
  d.attrs.protocol = 17;
  d.attrs.source_address = src.ipv4().value;
  d.attrs.source_port = 1000;
  d.attrs.destination_address = dst.ipv4().value;
  d.attrs.destination_port = 2000;
  d.body = util::Bytes(size, 'k');
  return d;
}

class LifetimeTest : public ::testing::Test {
 protected:
  LifetimeTest() : world_(1111) {
    world_.add_node("a", "10.0.0.1");
    world_.add_node("b", "10.0.0.2");
  }

  FbsEndpoint make_sender(const FbsConfig& cfg) {
    auto& a = world_["a"];
    return FbsEndpoint(a.principal, cfg, *a.keys, world_.clock, world_.rng);
  }

  Sfl sfl_of(const util::Bytes& wire) {
    return FbsHeaderView::parse(wire)->sfl;
  }

  TestWorld world_;
};

TEST_F(LifetimeTest, RekeyAfterDatagramCount) {
  FbsConfig cfg;
  cfg.rekey_after_datagrams = 5;
  auto sender = make_sender(cfg);
  const Datagram d = datagram(world_["a"].principal, world_["b"].principal, 64);

  std::set<Sfl> sfls;
  for (int i = 0; i < 12; ++i) sfls.insert(sfl_of(*protect(sender, d, false)));
  // 12 datagrams at 5 per key -> 3 distinct flows.
  EXPECT_EQ(sfls.size(), 3u);
  EXPECT_EQ(sender.send_stats().lifetime_rekeys, 2u);
}

TEST_F(LifetimeTest, RekeyAfterByteCount) {
  FbsConfig cfg;
  cfg.rekey_after_bytes = 10'000;
  auto sender = make_sender(cfg);
  const Datagram d =
      datagram(world_["a"].principal, world_["b"].principal, 4000);

  std::set<Sfl> sfls;
  for (int i = 0; i < 6; ++i) sfls.insert(sfl_of(*protect(sender, d, false)));
  // 4000B each, limit 10KB: rekey roughly every 3 datagrams.
  EXPECT_GE(sfls.size(), 2u);
  EXPECT_GE(sender.send_stats().lifetime_rekeys, 1u);
}

TEST_F(LifetimeTest, RekeyAfterAge) {
  FbsConfig cfg;
  cfg.rekey_after_age = util::seconds(100);
  auto sender = make_sender(cfg);
  const Datagram d = datagram(world_["a"].principal, world_["b"].principal, 8);

  const Sfl first = sfl_of(*protect(sender, d, false));
  world_.clock.advance(util::seconds(50));
  EXPECT_EQ(sfl_of(*protect(sender, d, false)), first);  // young key
  world_.clock.advance(util::seconds(51));
  EXPECT_NE(sfl_of(*protect(sender, d, false)), first);  // worn out
  EXPECT_EQ(sender.send_stats().lifetime_rekeys, 1u);
}

TEST_F(LifetimeTest, NoPolicyNeverRekeys) {
  FbsConfig cfg;  // all limits zero
  auto sender = make_sender(cfg);
  const Datagram d = datagram(world_["a"].principal, world_["b"].principal, 64);
  std::set<Sfl> sfls;
  for (int i = 0; i < 50; ++i) sfls.insert(sfl_of(*protect(sender, d, false)));
  EXPECT_EQ(sfls.size(), 1u);
  EXPECT_EQ(sender.send_stats().lifetime_rekeys, 0u);
}

TEST_F(LifetimeTest, ReceiverFollowsRekeysWithoutCoordination) {
  FbsConfig cfg;
  cfg.rekey_after_datagrams = 3;
  auto sender = make_sender(cfg);
  auto& b = world_["b"];
  FbsEndpoint receiver(b.principal, FbsConfig{}, *b.keys, world_.clock,
                       world_.rng);
  const Datagram d = datagram(world_["a"].principal, b.principal, 32);
  for (int i = 0; i < 10; ++i) {
    auto wire = protect(sender, d, true);
    ASSERT_TRUE(wire.has_value());
    auto outcome = unprotect(receiver, world_["a"].principal, *wire);
    ASSERT_TRUE(std::holds_alternative<ReceivedDatagram>(outcome)) << i;
  }
  EXPECT_EQ(receiver.receive_stats().accepted, 10u);
  // Receiver derived one key per flow the sender created.
  EXPECT_EQ(receiver.receive_stats().flow_keys_derived,
            sender.send_stats().flow_keys_derived);
}

TEST_F(LifetimeTest, SplitModeAlsoRekeysByCount) {
  FbsConfig cfg;
  cfg.combined_fst_tfkc = false;
  cfg.rekey_after_datagrams = 4;
  auto sender = make_sender(cfg);
  const Datagram d = datagram(world_["a"].principal, world_["b"].principal, 8);
  std::set<Sfl> sfls;
  for (int i = 0; i < 8; ++i) sfls.insert(sfl_of(*protect(sender, d, false)));
  EXPECT_EQ(sfls.size(), 2u);
  EXPECT_EQ(sender.send_stats().lifetime_rekeys, 1u);
}

TEST_F(LifetimeTest, SplitModeRekeysByByteCount) {
  // Regression: the split-path worn check tested datagrams and age but not
  // bytes, so a bytes-only policy silently never rekeyed outside combined
  // mode. With 4000B datagrams and a 10KB limit the FAM entry crosses the
  // limit at the 3rd datagram, so the 4th starts a fresh flow.
  FbsConfig cfg;
  cfg.combined_fst_tfkc = false;
  cfg.rekey_after_bytes = 10'000;
  auto sender = make_sender(cfg);
  const Datagram d =
      datagram(world_["a"].principal, world_["b"].principal, 4000);
  std::set<Sfl> sfls;
  for (int i = 0; i < 6; ++i) sfls.insert(sfl_of(*protect(sender, d, false)));
  EXPECT_EQ(sfls.size(), 2u);
  EXPECT_GE(sender.send_stats().lifetime_rekeys, 1u);
}

TEST_F(LifetimeTest, BytesOnlyRekeyMatchesAcrossModes) {
  // The same bytes-only policy must behave in both table organizations.
  for (const bool combined : {true, false}) {
    FbsConfig cfg;
    cfg.combined_fst_tfkc = combined;
    cfg.rekey_after_bytes = 1'000;
    auto sender = make_sender(cfg);
    const Datagram d =
        datagram(world_["a"].principal, world_["b"].principal, 600);
    std::set<Sfl> sfls;
    for (int i = 0; i < 6; ++i)
      sfls.insert(sfl_of(*protect(sender, d, false)));
    // 600B each, limit 1KB: every second datagram wears the key out.
    EXPECT_EQ(sfls.size(), 3u) << (combined ? "combined" : "split");
    EXPECT_EQ(sender.send_stats().lifetime_rekeys, 2u)
        << (combined ? "combined" : "split");
  }
}

class RawIpTest : public ::testing::Test {
 protected:
  RawIpTest()
      : world_(2222),
        net_(world_.clock, 14),
        a_node_(world_.add_node("a", "10.0.0.1")),
        b_node_(world_.add_node("b", "10.0.0.2")),
        a_stack_(net_, world_.clock, *net::Ipv4Address::parse("10.0.0.1")),
        b_stack_(net_, world_.clock, *net::Ipv4Address::parse("10.0.0.2")) {}

  static IpMappingConfig raw_config() {
    IpMappingConfig cfg;
    cfg.protect_raw_ip = true;
    return cfg;
  }

  TestWorld world_;
  net::SimNetwork net_;
  TestWorld::Node& a_node_;
  TestWorld::Node& b_node_;
  net::IpStack a_stack_;
  net::IpStack b_stack_;
};

TEST_F(RawIpTest, PingWorksUnderHostLevelProtection) {
  FbsIpMapping a_fbs(a_stack_, raw_config(), *a_node_.keys, world_.clock,
                     world_.rng);
  FbsIpMapping b_fbs(b_stack_, raw_config(), *b_node_.keys, world_.clock,
                     world_.rng);
  net::IcmpService a_icmp(a_stack_, world_.clock);
  net::IcmpService b_icmp(b_stack_, world_.clock);

  int replies = 0;
  a_icmp.on_echo_reply([&](net::Ipv4Address, std::uint16_t, util::TimeUs) {
    ++replies;
  });
  a_icmp.ping(b_stack_.address(), 1);
  a_icmp.ping(b_stack_.address(), 2);
  net_.run();
  EXPECT_EQ(replies, 2);
  // ICMP was protected, not passed raw.
  EXPECT_EQ(a_fbs.counters().out_raw_ip, 0u);
  EXPECT_GE(a_fbs.counters().out_protected, 2u);
  // Both pings rode ONE host-level flow.
  EXPECT_EQ(a_fbs.endpoint().send_stats().flow_keys_derived, 1u);
}

TEST_F(RawIpTest, IcmpCiphertextOnTheWire) {
  FbsIpMapping a_fbs(a_stack_, raw_config(), *a_node_.keys, world_.clock,
                     world_.rng);
  FbsIpMapping b_fbs(b_stack_, raw_config(), *b_node_.keys, world_.clock,
                     world_.rng);
  net::IcmpService a_icmp(a_stack_, world_.clock);
  net::IcmpService b_icmp(b_stack_, world_.clock);

  const util::Bytes marker = util::to_bytes("SECRET-PING-PAYLOAD");
  bool leaked = false;
  net_.set_tap([&](net::Ipv4Address, net::Ipv4Address, util::Bytes& f) {
    if (std::search(f.begin(), f.end(), marker.begin(), marker.end()) !=
        f.end())
      leaked = true;
    return net::SimNetwork::TapVerdict::kPass;
  });
  a_icmp.ping(b_stack_.address(), 9, marker);
  net_.run();
  EXPECT_FALSE(leaked);
}

TEST_F(RawIpTest, DefaultConfigStillPassesRawThrough) {
  FbsIpMapping a_fbs(a_stack_, IpMappingConfig{}, *a_node_.keys, world_.clock,
                     world_.rng);
  FbsIpMapping b_fbs(b_stack_, IpMappingConfig{}, *b_node_.keys, world_.clock,
                     world_.rng);
  net::IcmpService a_icmp(a_stack_, world_.clock);
  net::IcmpService b_icmp(b_stack_, world_.clock);
  int replies = 0;
  a_icmp.on_echo_reply([&](net::Ipv4Address, std::uint16_t, util::TimeUs) {
    ++replies;
  });
  a_icmp.ping(b_stack_.address(), 1);
  net_.run();
  EXPECT_EQ(replies, 1);
  EXPECT_GE(a_fbs.counters().out_raw_ip, 1u);
  EXPECT_EQ(a_fbs.counters().out_protected, 0u);
}

TEST(NullMacSuite, NopConfigurationRoundTrips) {
  // The Figure 8 "FBS NOP" config: header processing intact, crypto
  // nullified. Must round-trip (it measures protocol overhead) but offers
  // no integrity.
  TestWorld world(3333);
  auto& a = world.add_node("a", "10.0.0.1");
  auto& b = world.add_node("b", "10.0.0.2");
  FbsConfig cfg;
  cfg.suite.mac = crypto::MacAlgorithm::kNull;
  cfg.suite.cipher = crypto::CipherAlgorithm::kNone;
  FbsEndpoint sender(a.principal, cfg, *a.keys, world.clock, world.rng);
  FbsEndpoint receiver(b.principal, cfg, *b.keys, world.clock, world.rng);

  Datagram d = datagram(a.principal, b.principal, 100);
  const auto wire = protect(sender, d, false);
  ASSERT_TRUE(wire.has_value());
  // Same wire size as the real MD5 suite: fair overhead comparison.
  EXPECT_EQ(wire->size(), d.body.size() + FbsHeaderView::overhead({}));
  auto outcome = unprotect(receiver, a.principal, *wire);
  ASSERT_TRUE(std::holds_alternative<ReceivedDatagram>(outcome));
  EXPECT_EQ(std::get<ReceivedDatagram>(outcome).datagram.body, d.body);
}

}  // namespace
}  // namespace fbs::core
