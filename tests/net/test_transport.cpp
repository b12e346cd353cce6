// The uniform Transport contract: both backends close the same conservation
// equation and publish the same `<prefix>.transport.*` metric family.
#include "net/transport.hpp"

#include <gtest/gtest.h>

#include "net/ip.hpp"
#include "net/simnet.hpp"
#include "net/udp_transport.hpp"
#include "obs/metrics.hpp"
#include "util/clock.hpp"

namespace fbs::net {
namespace {

const Ipv4Address kA = *Ipv4Address::parse("10.9.0.1");
const Ipv4Address kB = *Ipv4Address::parse("10.9.0.2");
const Ipv4Address kGhost = *Ipv4Address::parse("10.9.0.99");

util::Bytes frame(std::size_t n = 40) { return util::Bytes(n, 0xC3); }

std::uint64_t conservation_slack(const Transport::Totals& t) {
  const std::uint64_t in = t.sent + t.received + t.duplicated + t.injected;
  const std::uint64_t out = t.delivered + t.tx_wire + t.dropped + t.in_flight;
  return in > out ? in - out : out - in;
}

TEST(TransportTotals, SimNetworkClosesTheEquationUnderFaults) {
  util::VirtualClock clock;
  SimNetwork net(clock, 42);
  LinkParams lossy;
  lossy.loss = 0.3;
  lossy.duplicate = 0.2;
  net.set_default_link(lossy);
  net.attach(kA, [](std::span<const util::Bytes>) {});
  net.attach(kB, [](std::span<const util::Bytes>) {});

  for (int i = 0; i < 500; ++i) {
    net.send(kA, kB, frame());
    net.send(kA, kGhost, frame());  // lands in no_such_host
  }
  net.inject(kB, frame(), util::TimeUs{10});

  // Mid-drain the equation balances through in_flight...
  EXPECT_EQ(conservation_slack(net.totals()), 0u);
  net.run();
  // ...and after a drain in_flight is zero.
  const Transport::Totals t = net.totals();
  EXPECT_EQ(conservation_slack(t), 0u);
  EXPECT_EQ(t.in_flight, 0u);
  EXPECT_EQ(t.received, 0u);
  EXPECT_EQ(t.tx_wire, 0u);
  EXPECT_EQ(t.injected, 1u);
  EXPECT_GT(t.dropped, 0u);
}

TEST(TransportTotals, UdpTransportClosesTheEquationUnderDrops) {
  util::SteadyClock clock;
  UdpTransport a(clock), b(clock);
  ASSERT_TRUE(a.ok() && b.ok());
  a.add_peer(kB, "127.0.0.1", b.local_port());
  std::size_t got = 0;
  b.attach(kB, [&](std::span<const util::Bytes> frames) { got += frames.size(); });

  Ipv4Header h;
  h.protocol = static_cast<std::uint8_t>(IpProto::kUdp);
  h.source = kA;
  h.destination = kB;
  const util::Bytes wire_frame = h.serialize(util::Bytes(32, 1));
  for (int i = 0; i < 20; ++i) a.send(kA, kB, wire_frame);
  a.send(kA, kGhost, frame());  // unknown peer: counted drop

  int idle = 0;
  for (int i = 0; i < 2000 && idle < 3; ++i) {
    idle = b.poll(util::TimeUs{1000}) == 0 ? idle + 1 : 0;
  }
  EXPECT_EQ(got, 20u);
  EXPECT_EQ(conservation_slack(a.totals()), 0u);
  EXPECT_EQ(conservation_slack(b.totals()), 0u);
  EXPECT_EQ(a.totals().tx_wire, 20u);
  EXPECT_EQ(a.totals().dropped, 1u);
  EXPECT_EQ(b.totals().delivered, 20u);
}

TEST(TransportMetrics, BothBackendsEmitTheUniformFamily) {
  util::VirtualClock vclock;
  SimNetwork sim(vclock, 1);
  util::SteadyClock sclock;
  UdpTransport udp(sclock);
  ASSERT_TRUE(udp.ok());

  obs::MetricsRegistry reg;
  sim.register_metrics(reg, "sim");
  udp.register_metrics(reg, "udp");

  sim.attach(kB, [](std::span<const util::Bytes>) {});
  sim.send(kA, kB, frame());
  sim.run();
  udp.send(kA, kGhost, frame());

  const obs::MetricsSnapshot snap = reg.snapshot();
  for (const std::string prefix : {"sim", "udp"}) {
    for (const std::string name :
         {".transport.sent", ".transport.received", ".transport.duplicated",
          ".transport.injected", ".transport.delivered",
          ".transport.tx_wire", ".transport.dropped"}) {
      EXPECT_TRUE(snap.counters.contains(prefix + name)) << prefix + name;
    }
    EXPECT_TRUE(snap.gauges.contains(prefix + ".transport.in_flight"));
  }
  EXPECT_EQ(snap.counters.at("sim.transport.sent"), 1u);
  EXPECT_EQ(snap.counters.at("sim.transport.delivered"), 1u);
  EXPECT_EQ(snap.counters.at("udp.transport.sent"), 1u);
  EXPECT_EQ(snap.counters.at("udp.transport.dropped"), 1u);
}

}  // namespace
}  // namespace fbs::net
