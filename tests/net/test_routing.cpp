// Routing and forwarding unit tests (the gateway role added for the
// Section 7.1 host/gateway topology), plus the simnet timer facility.
#include <gtest/gtest.h>

#include "net/udp.hpp"
#include "net/simnet.hpp"

namespace fbs::net {
namespace {

const Ipv4Address kHostA = *Ipv4Address::parse("10.1.0.10");
const Ipv4Address kGw = *Ipv4Address::parse("10.1.0.1");
const Ipv4Address kHostB = *Ipv4Address::parse("10.2.0.10");

class RoutingTest : public ::testing::Test {
 protected:
  RoutingTest()
      : clock_(util::minutes(1)),
        net_(clock_, 77),
        a_(net_, clock_, kHostA),
        gw_(net_, clock_, kGw),
        b_(net_, clock_, kHostB),
        a_udp_(a_),
        b_udp_(b_) {}

  util::VirtualClock clock_;
  SimNetwork net_;
  IpStack a_, gw_, b_;
  UdpService a_udp_, b_udp_;
};

TEST_F(RoutingTest, DefaultRouteSendsViaGateway) {
  a_.set_default_route(kGw);
  gw_.enable_forwarding(true);
  util::Bytes got;
  b_udp_.bind(9, [&](Ipv4Address, std::uint16_t, util::Bytes p) {
    got = std::move(p);
  });
  a_udp_.send(kHostB, 1, 9, util::to_bytes("routed"));
  net_.run();
  EXPECT_EQ(got, util::to_bytes("routed"));
  EXPECT_EQ(gw_.counters().forwarded, 1u);
}

TEST_F(RoutingTest, WithoutForwardingGatewayDropsTransit) {
  a_.set_default_route(kGw);
  int delivered = 0;
  b_udp_.bind(9, [&](Ipv4Address, std::uint16_t, util::Bytes) {
    ++delivered;
  });
  a_udp_.send(kHostB, 1, 9, util::to_bytes("x"));
  net_.run();
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(gw_.counters().not_for_us, 1u);
}

TEST_F(RoutingTest, LongestPrefixWins) {
  IpStack other_gw(net_, clock_, *Ipv4Address::parse("10.1.0.2"));
  other_gw.enable_forwarding(true);
  gw_.enable_forwarding(true);
  // Default via gw, but 10.2/16 via other_gw: the /16 must win.
  a_.set_default_route(kGw);
  a_.add_route(*Ipv4Address::parse("10.2.0.0"), 16, other_gw.address());
  b_udp_.bind(9, [](Ipv4Address, std::uint16_t, util::Bytes) {});
  a_udp_.send(kHostB, 1, 9, util::to_bytes("x"));
  net_.run();
  EXPECT_EQ(other_gw.counters().forwarded, 1u);
  EXPECT_EQ(gw_.counters().forwarded, 0u);
}

TEST_F(RoutingTest, NoRouteMeansDirectDelivery) {
  util::Bytes got;
  b_udp_.bind(9, [&](Ipv4Address, std::uint16_t, util::Bytes p) {
    got = std::move(p);
  });
  a_udp_.send(kHostB, 1, 9, util::to_bytes("direct"));  // same segment
  net_.run();
  EXPECT_EQ(got, util::to_bytes("direct"));
}

TEST_F(RoutingTest, TtlExpiresInRoutingLoop) {
  // Two gateways pointing at each other: the packet must die, not loop
  // forever.
  IpStack gw2(net_, clock_, *Ipv4Address::parse("10.1.0.2"));
  gw_.enable_forwarding(true);
  gw2.enable_forwarding(true);
  gw_.add_route(*Ipv4Address::parse("10.99.0.0"), 16, gw2.address());
  gw2.add_route(*Ipv4Address::parse("10.99.0.0"), 16, gw_.address());
  a_.set_default_route(kGw);
  a_udp_.send(*Ipv4Address::parse("10.99.0.1"), 1, 9, util::to_bytes("loop"));
  net_.run();  // must terminate
  EXPECT_EQ(gw_.counters().ttl_expired + gw2.counters().ttl_expired, 1u);
  EXPECT_GT(gw_.counters().forwarded + gw2.counters().forwarded, 50u);
}

TEST_F(RoutingTest, ForwardFilterCanConsume) {
  gw_.enable_forwarding(true);
  a_.set_default_route(kGw);
  int stolen = 0;
  gw_.set_forward_filter([&](const Ipv4Header&, const util::Bytes&) {
    ++stolen;
    return true;  // consumed: nothing forwarded
  });
  int delivered = 0;
  b_udp_.bind(9, [&](Ipv4Address, std::uint16_t, util::Bytes) {
    ++delivered;
  });
  a_udp_.send(kHostB, 1, 9, util::to_bytes("x"));
  net_.run();
  EXPECT_EQ(stolen, 1);
  EXPECT_EQ(delivered, 0);
}

TEST_F(RoutingTest, ForwardedFragmentsReassembleAtFilter) {
  // The forward filter sees whole datagrams (needed by the tunnel).
  gw_.enable_forwarding(true);
  a_.set_default_route(kGw);
  std::size_t seen_size = 0;
  gw_.set_forward_filter([&](const Ipv4Header&, const util::Bytes& p) {
    seen_size = p.size();
    return false;  // forward normally afterwards
  });
  util::Bytes got;
  b_udp_.bind(9, [&](Ipv4Address, std::uint16_t, util::Bytes p) {
    got = std::move(p);
  });
  a_udp_.send(kHostB, 1, 9, util::Bytes(4000, 'f'));
  net_.run();
  EXPECT_EQ(seen_size, 4000u + UdpHeader::kSize);
  EXPECT_EQ(got.size(), 4000u);
}

TEST(SimNetTimers, CallLaterFiresInOrder) {
  util::VirtualClock clock(0);
  SimNetwork net(clock, 1);
  std::vector<int> order;
  net.call_later(util::seconds(3), [&] { order.push_back(3); });
  net.call_later(util::seconds(1), [&] { order.push_back(1); });
  net.call_later(util::seconds(2), [&] { order.push_back(2); });
  net.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(clock.now(), util::seconds(3));
}

TEST(SimNetTimers, TimerCanScheduleMoreTimers) {
  util::VirtualClock clock(0);
  SimNetwork net(clock, 1);
  int fired = 0;
  std::function<void()> tick = [&] {
    if (++fired < 5) net.call_later(util::seconds(1), tick);
  };
  net.call_later(util::seconds(1), tick);
  net.run();
  EXPECT_EQ(fired, 5);
  EXPECT_EQ(clock.now(), util::seconds(5));
}

TEST(SimNetTimers, TimersInterleaveWithFrames) {
  util::VirtualClock clock(0);
  SimNetwork net(clock, 1);
  std::vector<std::string> events;
  net.attach(*Ipv4Address::parse("1.1.1.1"), [&](std::span<const util::Bytes> frames) {
    for (std::size_t i = 0; i < frames.size(); ++i) events.push_back("frame");
  });
  net.call_later(util::TimeUs{100}, [&] { events.push_back("early-timer"); });
  net.send(*Ipv4Address::parse("2.2.2.2"), *Ipv4Address::parse("1.1.1.1"),
           util::to_bytes("f"));  // default 200us delay
  net.call_later(util::TimeUs{300}, [&] { events.push_back("late-timer"); });
  net.run();
  EXPECT_EQ(events,
            (std::vector<std::string>{"early-timer", "frame", "late-timer"}));
}

}  // namespace
}  // namespace fbs::net
