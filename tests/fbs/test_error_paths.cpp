// Error-path coverage for the mappings: malformed inner packets at the
// tunnel egress, malformed application messages, and engine behaviour with
// a zero-size FST (degenerate configs must not crash).
#include <gtest/gtest.h>

#include "fbs/app_map.hpp"
#include "net/simnet.hpp"
#include "fbs/tunnel.hpp"
#include "net/udp.hpp"
#include "support/protect.hpp"
#include "support/world.hpp"

namespace fbs::core {
namespace {

using testing::ReceivedDatagram;
using testing::protect;
using testing::unprotect;
using testing::TestWorld;

TEST(TunnelErrorPaths, GarbageInnerPacketCounted) {
  TestWorld world(13131);
  net::SimNetwork net(world.clock, 5);
  auto& gw1 = world.add_node("gw1", "198.18.0.1");
  auto& gw2 = world.add_node("gw2", "198.18.0.2");
  net::IpStack s1(net, world.clock, *net::Ipv4Address::parse("198.18.0.1"));
  net::IpStack s2(net, world.clock, *net::Ipv4Address::parse("198.18.0.2"));
  s1.enable_forwarding(true);
  s2.enable_forwarding(true);
  FbsTunnel t1(s1, *gw1.keys, world.clock, world.rng);
  FbsTunnel t2(s2, *gw2.keys, world.clock, world.rng);

  // Craft a VALID FBS datagram from gw1 to gw2 whose protected body is NOT
  // an IP packet: egress decapsulation must reject it gracefully.
  FbsEndpoint rogue(Principal::from_ipv4(s1.address()), FbsConfig{},
                    *gw1.keys, world.clock, world.rng);
  Datagram d;
  d.source = Principal::from_ipv4(s1.address());
  d.destination = Principal::from_ipv4(s2.address());
  d.body = util::to_bytes("not an ip packet at all");
  const auto wire = protect(rogue, d, true);
  ASSERT_TRUE(wire.has_value());
  s1.output(s2.address(), net::IpProto::kFbsTunnel, *wire);
  net.run();
  EXPECT_EQ(t2.counters().inner_malformed, 1u);
  EXPECT_EQ(t2.counters().decapsulated, 0u);
}

TEST(TunnelErrorPaths, KeyUnavailableConsumesAndDrops) {
  // Remote gateway has no certificate: tunneled traffic must fail closed
  // (consumed, never forwarded in the clear).
  TestWorld world(13132);
  net::SimNetwork net(world.clock, 6);
  auto& gw1 = world.add_node("gw1", "198.18.0.1");
  net::IpStack s1(net, world.clock, *net::Ipv4Address::parse("198.18.0.1"));
  s1.enable_forwarding(true);
  FbsTunnel t1(s1, *gw1.keys, world.clock, world.rng);
  const auto unknown_gw = *net::Ipv4Address::parse("198.18.0.99");
  t1.add_remote_network(*net::Ipv4Address::parse("10.2.0.0"), 16, unknown_gw);

  // A host behind gw1 sends toward the remote network.
  net::IpStack h(net, world.clock, *net::Ipv4Address::parse("10.1.0.5"));
  h.set_default_route(s1.address());
  net::UdpService h_udp(h);
  // Eavesdropper checks nothing plaintext escapes toward the dead gateway.
  bool anything_out = false;
  net.set_tap([&](net::Ipv4Address from, net::Ipv4Address to, util::Bytes&) {
    if (from == s1.address() && to == unknown_gw) anything_out = true;
    return net::SimNetwork::TapVerdict::kPass;
  });
  h_udp.send(*net::Ipv4Address::parse("10.2.0.7"), 1, 9,
             util::to_bytes("must not leak"));
  net.run();
  EXPECT_EQ(t1.counters().key_unavailable, 1u);
  EXPECT_FALSE(anything_out);
}

TEST(AppMapErrorPaths, TruncatedConversationIdCounted) {
  TestWorld world(13133);
  net::SimNetwork net(world.clock, 7);
  net::IpStack sa(net, world.clock, *net::Ipv4Address::parse("10.0.0.1"));
  net::IpStack sb(net, world.clock, *net::Ipv4Address::parse("10.0.0.2"));
  net::UdpService ua(sa), ub(sb);

  // Enroll application principals.
  auto enroll = [&](net::Ipv4Address host, std::uint16_t port) {
    const Principal p = app_principal(host, port);
    const auto& group = crypto::test_group();
    const auto dh = crypto::dh_generate(group, world.rng);
    world.directory.publish(world.ca.issue(
        p.address, group.name,
        dh.public_value.to_bytes_be(group.element_size()), 0,
        world.clock.now() + util::minutes(1000000)));
    struct R {
      std::unique_ptr<MasterKeyDaemon> mkd;
      std::unique_ptr<KeyManager> keys;
    } r;
    r.mkd = std::make_unique<MasterKeyDaemon>(p, dh.private_value, group,
                                              world.ca, world.directory,
                                              world.clock);
    r.keys = std::make_unique<KeyManager>(*r.mkd);
    return r;
  };
  auto ra = enroll(sa.address(), 700);
  auto rb = enroll(sb.address(), 700);
  AppEndpoint a(ua, sa.address(), 700, *ra.keys, world.clock, world.rng);
  AppEndpoint b(ub, sb.address(), 700, *rb.keys, world.clock, world.rng);
  b.on_message([](const Principal&, std::uint64_t, util::BytesView) {});

  // Build a VALID FBS datagram whose body is shorter than a conversation
  // id, sent straight at b's app port.
  FbsEndpoint rogue(app_principal(sa.address(), 700), FbsConfig{}, *ra.keys,
                    world.clock, world.rng);
  Datagram d;
  d.source = app_principal(sa.address(), 700);
  d.destination = app_principal(sb.address(), 700);
  d.body = util::to_bytes("abc");  // < 8 bytes
  const auto wire = protect(rogue, d, true);
  ASSERT_TRUE(wire.has_value());
  ua.send(sb.address(), 700, 700, *wire);
  net.run();
  EXPECT_EQ(b.counters().malformed, 1u);
  EXPECT_EQ(b.counters().received, 0u);
}

TEST(EngineDegenerateConfigs, TinyTablesStillCorrect) {
  // FST size 1, caches size 1: everything collides constantly, nothing may
  // break -- only performance suffers (soft state!).
  TestWorld world(13134);
  auto& a = world.add_node("a", "10.0.0.1");
  auto& b = world.add_node("b", "10.0.0.2");
  FbsConfig tiny;
  tiny.fst_size = 1;
  tiny.tfkc_size = 1;
  tiny.rfkc_size = 1;
  FbsEndpoint sender(a.principal, tiny, *a.keys, world.clock, world.rng);
  FbsEndpoint receiver(b.principal, tiny, *b.keys, world.clock, world.rng);

  for (int i = 0; i < 20; ++i) {
    Datagram d;
    d.source = a.principal;
    d.destination = b.principal;
    d.attrs.source_port = static_cast<std::uint16_t>(1000 + i % 3);
    d.attrs.destination_port = 9;
    d.body = util::to_bytes("datagram " + std::to_string(i));
    const auto wire = protect(sender, d, true);
    ASSERT_TRUE(wire.has_value()) << i;
    auto outcome = unprotect(receiver, a.principal, *wire);
    ASSERT_TRUE(std::holds_alternative<ReceivedDatagram>(outcome)) << i;
    EXPECT_EQ(std::get<ReceivedDatagram>(outcome).datagram.body, d.body);
  }
  // Collisions forced re-derivations but never wrong results.
  EXPECT_GT(sender.send_stats().flow_keys_derived, 3u);
}

}  // namespace
}  // namespace fbs::core
