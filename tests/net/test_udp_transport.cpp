// Real-socket backend over loopback, in-process: two transports on their
// own ephemeral ports exchange FBS-layer frames (full IPv4 packets), with
// the drop buckets and the Transport conservation equation asserted.
#include "net/udp_transport.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <span>

#include "net/ip.hpp"
#include "util/clock.hpp"

namespace fbs::net {
namespace {

const Ipv4Address kAlice = *Ipv4Address::parse("10.77.0.1");
const Ipv4Address kBob = *Ipv4Address::parse("10.77.0.2");

util::Bytes make_frame(Ipv4Address from, Ipv4Address to,
                       std::size_t payload_size = 32) {
  Ipv4Header h;
  h.protocol = static_cast<std::uint8_t>(IpProto::kUdp);
  h.source = from;
  h.destination = to;
  return h.serialize(util::Bytes(payload_size, 0xAB));
}

void expect_conservation(const UdpTransport& t) {
  const Transport::Totals tot = t.totals();
  EXPECT_EQ(tot.sent + tot.received + tot.duplicated + tot.injected,
            tot.delivered + tot.tx_wire + tot.dropped + tot.in_flight);
}

struct Pair {
  util::SteadyClock clock;
  UdpTransport a;
  UdpTransport b;

  Pair() : a(clock), b(clock) {
    EXPECT_TRUE(a.ok()) << a.error();
    EXPECT_TRUE(b.ok()) << b.error();
    a.add_peer(kBob, "127.0.0.1", b.local_port());
    b.add_peer(kAlice, "127.0.0.1", a.local_port());
  }

  /// Alternate the two pumps until both go idle `calm` times in a row.
  void run(int calm = 3) {
    int idle = 0;
    for (int i = 0; i < 2000 && idle < calm; ++i) {
      const std::size_t n =
          a.poll(util::TimeUs{1000}) + b.poll(util::TimeUs{1000});
      idle = n == 0 ? idle + 1 : 0;
    }
  }
};

TEST(UdpTransport, BindsEphemeralPort) {
  util::SteadyClock clock;
  UdpTransport t(clock);
  ASSERT_TRUE(t.ok()) << t.error();
  EXPECT_GT(t.local_port(), 0);
}

TEST(UdpTransport, DeliversFramesBothWays) {
  Pair p;
  util::Bytes got_a, got_b;
  p.a.attach(kAlice, [&](std::span<const util::Bytes> f) { got_a = f.back(); });
  p.b.attach(kBob, [&](std::span<const util::Bytes> f) { got_b = f.back(); });

  const util::Bytes to_bob = make_frame(kAlice, kBob);
  const util::Bytes to_alice = make_frame(kBob, kAlice);
  p.a.send(kAlice, kBob, to_bob);
  p.b.send(kBob, kAlice, to_alice);
  p.run();

  EXPECT_EQ(got_b, to_bob);
  EXPECT_EQ(got_a, to_alice);
  EXPECT_EQ(p.a.counters().tx_wire, 1u);
  EXPECT_EQ(p.b.counters().delivered, 1u);
  expect_conservation(p.a);
  expect_conservation(p.b);
}

TEST(UdpTransport, LearnsPeersFromReceivedFrames) {
  util::SteadyClock clock;
  UdpTransport a(clock), b(clock);
  ASSERT_TRUE(a.ok() && b.ok());
  // Only the initiator knows the responder; the responder learns the way
  // back from the frame's IPv4 source + the datagram's source sockaddr.
  a.add_peer(kBob, "127.0.0.1", b.local_port());
  util::Bytes echoed;
  a.attach(kAlice, [&](std::span<const util::Bytes> f) { echoed = f.back(); });
  b.attach(kBob, [&](std::span<const util::Bytes> f) {
    for (std::size_t i = 0; i < f.size(); ++i)
      b.send(kBob, kAlice, make_frame(kBob, kAlice, 8));
  });

  a.send(kAlice, kBob, make_frame(kAlice, kBob));
  int idle = 0;
  for (int i = 0; i < 2000 && idle < 3; ++i) {
    const std::size_t n =
        a.poll(util::TimeUs{1000}) + b.poll(util::TimeUs{1000});
    idle = n == 0 ? idle + 1 : 0;
  }
  EXPECT_FALSE(echoed.empty());
  EXPECT_EQ(b.counters().unknown_peer, 0u);
}

TEST(UdpTransport, UnknownPeerIsACountedDrop) {
  util::SteadyClock clock;
  UdpTransport t(clock);
  ASSERT_TRUE(t.ok());
  t.send(kAlice, kBob, make_frame(kAlice, kBob));
  EXPECT_EQ(t.counters().unknown_peer, 1u);
  EXPECT_EQ(t.counters().tx_wire, 0u);
  expect_conservation(t);
}

TEST(UdpTransport, MtuClampIsACountedDrop) {
  util::SteadyClock clock;
  UdpTransportConfig cfg;
  cfg.mtu = 256;
  UdpTransport t(clock, cfg);
  ASSERT_TRUE(t.ok());
  t.add_peer(kBob, "127.0.0.1", t.local_port());
  t.send(kAlice, kBob, make_frame(kAlice, kBob, 512));
  EXPECT_EQ(t.counters().oversized, 1u);
  EXPECT_EQ(t.counters().tx_wire, 0u);
  expect_conservation(t);
}

TEST(UdpTransport, OversizedReceiveIsACountedDropAndLearnsNoPeer) {
  util::SteadyClock clock;
  UdpTransportConfig small;
  small.mtu = 256;
  UdpTransport a(clock), b(clock, small);
  ASSERT_TRUE(a.ok() && b.ok());
  // b does not know kAlice; the read cuts the frame to mtu + 1 bytes.
  a.add_peer(kBob, "127.0.0.1", b.local_port());
  std::size_t sunk = 0;
  b.attach(kBob, [&](std::span<const util::Bytes> f) { sunk += f.size(); });

  const util::Bytes big = make_frame(kAlice, kBob, 1000 - Ipv4Header::kSize);
  ASSERT_EQ(big.size(), 1000u);
  a.send(kAlice, kBob, big);
  int idle = 0;
  for (int i = 0; i < 2000 && idle < 3; ++i) {
    const std::size_t n =
        a.poll(util::TimeUs{1000}) + b.poll(util::TimeUs{1000});
    idle = n == 0 ? idle + 1 : 0;
  }

  EXPECT_EQ(a.counters().tx_wire, 1u);
  EXPECT_EQ(b.counters().received, 1u);
  EXPECT_EQ(b.counters().oversized, 1u);
  EXPECT_EQ(b.counters().delivered, 0u);
  EXPECT_EQ(sunk, 0u);
  // Its source was not learned: there is still no way back to kAlice.
  b.send(kBob, kAlice, make_frame(kBob, kAlice, 8));
  EXPECT_EQ(b.counters().unknown_peer, 1u);
  EXPECT_EQ(b.counters().tx_wire, 0u);
  expect_conservation(b);
}

TEST(UdpTransport, NoSinkIsACountedDrop) {
  Pair p;
  // Nothing attached on b.
  p.a.send(kAlice, kBob, make_frame(kAlice, kBob));
  p.run();
  EXPECT_EQ(p.b.counters().received, 1u);
  EXPECT_EQ(p.b.counters().no_sink, 1u);
  expect_conservation(p.b);
}

TEST(UdpTransport, BoundedReceiveQueueOverflowsAsCountedDrop) {
  util::SteadyClock clock;
  UdpTransportConfig cfg;
  cfg.recv_queue_frames = 4;
  UdpTransport a(clock), b(clock, cfg);
  ASSERT_TRUE(a.ok() && b.ok());
  a.add_peer(kBob, "127.0.0.1", b.local_port());
  std::size_t delivered = 0;
  b.attach(kBob, [&](std::span<const util::Bytes> f) { delivered += f.size(); });

  // Burst without letting b pump: everything lands in the kernel socket
  // buffer, then the read budget splits it into drains the queue holds,
  // so nothing is lost.
  const std::size_t kBurst = 64;
  for (std::size_t i = 0; i < kBurst; ++i) {
    a.send(kAlice, kBob, make_frame(kAlice, kBob));
  }
  int idle = 0;
  for (int i = 0; i < 2000 && idle < 3; ++i) {
    idle = b.poll(util::TimeUs{1000}) == 0 ? idle + 1 : 0;
  }
  const auto& c = b.counters();
  EXPECT_EQ(c.received, c.delivered);
  EXPECT_EQ(delivered, c.delivered);
  expect_conservation(b);
}

TEST(UdpTransport, ReadBudgetLetsADueTimerFireDuringAFlood) {
  // One pass of poll() reads at most recv_queue_frames frames, hands them
  // to the sink in one batch and checks its timers before reading more:
  // a flood larger than the budget cannot hold a due timer back until the
  // socket is empty. Every frame read lands in exactly one bucket.
  util::SteadyClock clock;
  UdpTransportConfig cfg;
  cfg.recv_queue_frames = 8;
  UdpTransport a(clock), b(clock, cfg);
  ASSERT_TRUE(a.ok() && b.ok());
  a.add_peer(kBob, "127.0.0.1", b.local_port());
  std::size_t delivered = 0;
  std::size_t largest_batch = 0;
  std::optional<std::size_t> delivered_at_timer;
  b.attach(kBob, [&](std::span<const util::Bytes> frames) {
    if (delivered == 0)
      b.call_later(util::TimeUs{0}, [&] { delivered_at_timer = delivered; });
    delivered += frames.size();
    largest_batch = std::max(largest_batch, frames.size());
  });

  constexpr std::size_t kFlood = 64;
  for (std::size_t i = 0; i < kFlood; ++i)
    a.send(kAlice, kBob, make_frame(kAlice, kBob));
  a.send(kAlice, kBob, util::Bytes(8, 0));  // shorter than an IP header
  b.poll(util::TimeUs{50'000});

  ASSERT_TRUE(delivered_at_timer.has_value());
  EXPECT_EQ(*delivered_at_timer, cfg.recv_queue_frames);
  EXPECT_EQ(delivered, kFlood);
  EXPECT_EQ(largest_batch, cfg.recv_queue_frames);
  const auto& c = b.counters();
  EXPECT_EQ(c.received, kFlood + 1);
  EXPECT_EQ(c.rx_malformed, 1u);
  EXPECT_EQ(c.received, c.delivered + c.rx_malformed + c.no_sink);
  expect_conservation(b);
}

TEST(UdpTransport, TimersFireInDeadlineOrder) {
  util::SteadyClock clock;
  UdpTransport t(clock);
  ASSERT_TRUE(t.ok());
  std::vector<int> order;
  t.call_later(util::TimeUs{4000}, [&] { order.push_back(2); });
  t.call_later(util::TimeUs{1000}, [&] { order.push_back(1); });
  t.call_later(util::TimeUs{8000}, [&] {
    order.push_back(3);
    t.call_later(util::TimeUs{1000}, [&] { order.push_back(4); });
  });
  const util::TimeUs start = clock.now();
  while (t.work_pending() && clock.now() - start < util::seconds(5)) {
    t.poll(util::TimeUs{2000});
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

TEST(UdpTransport, CaptureHookSeesBothDirections) {
  Pair p;
  std::size_t outbound = 0, inbound = 0;
  p.a.set_capture([&](Ipv4Address, Ipv4Address, const util::Bytes&,
                      bool out) { ++(out ? outbound : inbound); });
  p.a.attach(kAlice, [](std::span<const util::Bytes>) {});
  p.b.attach(kBob, [&](std::span<const util::Bytes> f) {
    for (std::size_t i = 0; i < f.size(); ++i)
      p.b.send(kBob, kAlice, make_frame(kBob, kAlice));
  });
  p.a.send(kAlice, kBob, make_frame(kAlice, kBob));
  p.run();
  EXPECT_EQ(outbound, 1u);
  EXPECT_EQ(inbound, 1u);
}

}  // namespace
}  // namespace fbs::net
