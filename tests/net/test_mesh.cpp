// Transit mesh unit tests: routed delivery across TransitRouter chains,
// bandwidth/queue modeling, router-granularity faults, and the
// frame-conservation accounting the chaos scenarios build on.
#include <gtest/gtest.h>

#include "net/udp.hpp"
#include "support/transit_mesh.hpp"

namespace fbs::net {
namespace {

const Ipv4Address kHostA = *Ipv4Address::parse("10.201.0.1");
const Ipv4Address kHostB = *Ipv4Address::parse("10.201.0.2");

class MeshTest : public ::testing::Test {
 protected:
  MeshTest() : clock_(util::minutes(1)), net_(clock_, 42), rng_(42),
               mesh_(net_, clock_, rng_) {}

  /// Attach a host stack at `router` and point its default route there.
  std::unique_ptr<IpStack> make_host(Ipv4Address addr, Ipv4Address router,
                                     const TransitLinkConfig& cfg = {}) {
    auto host = std::make_unique<IpStack>(net_, clock_, addr);
    mesh_.attach_host(addr, router, cfg);
    host->set_default_route(router);
    return host;
  }

  util::VirtualClock clock_;
  SimNetwork net_;
  util::SplitMix64 rng_;
  MeshNetwork mesh_;
};

TEST_F(MeshTest, LineTopologyDeliversAcrossTransitRouters) {
  const auto r = build_line(mesh_, 3, {});
  auto a = make_host(kHostA, r.front());
  auto b = make_host(kHostB, r.back());
  mesh_.recompute_routes();

  UdpService a_udp(*a), b_udp(*b);
  util::Bytes got;
  b_udp.bind(9, [&](Ipv4Address, std::uint16_t, util::Bytes p) {
    got = std::move(p);
  });
  a_udp.send(kHostB, 1, 9, util::to_bytes("across the mesh"));
  net_.run();

  EXPECT_EQ(got, util::to_bytes("across the mesh"));
  // Every router on the path forwarded exactly this one packet.
  for (const Ipv4Address addr : r)
    EXPECT_EQ(mesh_.router(addr).stack().counters().forwarded, 1u)
        << addr.to_string();
  const auto totals = mesh_.totals();
  EXPECT_EQ(totals.sent, 3u);  // r0->r1, r1->r2, r2->hostB
  EXPECT_EQ(totals.enqueued, totals.sent);
}

TEST_F(MeshTest, DisconnectedDestinationDropsWithNoRouteAccounting) {
  mesh_.add_router(mesh_router_address(0));
  mesh_.add_router(mesh_router_address(1));  // never connected
  auto a = make_host(kHostA, mesh_router_address(0));
  auto b = make_host(kHostB, mesh_router_address(1));
  mesh_.recompute_routes();

  UdpService a_udp(*a), b_udp(*b);
  int delivered = 0;
  b_udp.bind(9, [&](Ipv4Address, std::uint16_t, util::Bytes) { ++delivered; });
  a_udp.send(kHostB, 1, 9, util::to_bytes("void"));
  net_.run();

  // SimNetwork is fully connected; only the mesh's no-route drop keeps the
  // frame from teleporting across the missing adjacency.
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(mesh_.router(mesh_router_address(0)).stats().no_route_dropped, 1u);
}

TEST_F(MeshTest, BandwidthSerializesQueuedFrames) {
  TransitLinkConfig slow;
  slow.bandwidth_bps = 1e6;  // 1000-byte frame = 8ms on the wire
  const auto r = build_line(mesh_, 2, slow);
  auto a = make_host(kHostA, r.front());
  auto b = make_host(kHostB, r.back(), slow);
  mesh_.recompute_routes();

  UdpService a_udp(*a), b_udp(*b);
  int delivered = 0;
  b_udp.bind(9, [&](Ipv4Address, std::uint16_t, util::Bytes) { ++delivered; });
  const util::TimeUs t0 = clock_.now();
  for (int i = 0; i < 5; ++i)
    a_udp.send(kHostB, 1, 9, util::Bytes(972, 'x'));  // ~1000B on the wire
  net_.run();

  EXPECT_EQ(delivered, 5);
  // Two serialized hops; the bottleneck alone spaces the 5 frames over at
  // least 4 full serialization times.
  EXPECT_GE(clock_.now() - t0, util::TimeUs{4 * 8'000});
  const auto* ls = mesh_.router(r[0]).link_stats(r[1]);
  ASSERT_NE(ls, nullptr);
  EXPECT_GT(ls->queue.highwater, 1u);  // frames actually queued behind tx
}

TEST_F(MeshTest, RouterOriginatedFramesLeaveThroughTheLinkQueue) {
  // Not just forwarded traffic: what the router's own stack sends also
  // goes through the egress queue and its serializer.
  TransitLinkConfig slow;
  slow.bandwidth_bps = 1e6;  // 1000-byte frame = 8ms on the wire
  TransitRouter& r = mesh_.add_router(mesh_router_address(0));
  auto a = make_host(kHostA, r.address(), slow);
  mesh_.recompute_routes();

  UdpService r_udp(r.stack()), a_udp(*a);
  std::vector<util::TimeUs> arrivals;
  a_udp.bind(9, [&](Ipv4Address, std::uint16_t, util::Bytes) {
    arrivals.push_back(clock_.now());
  });
  const util::TimeUs t0 = clock_.now();
  for (int i = 0; i < 3; ++i)
    r_udp.send(kHostA, 1, 9, util::Bytes(972, 'x'));  // 1000B on the wire
  net_.run();

  ASSERT_EQ(arrivals.size(), 3u);
  const auto* ls = r.link_stats(kHostA);
  ASSERT_NE(ls, nullptr);
  EXPECT_EQ(ls->queue.enqueued, 3u);
  EXPECT_EQ(ls->queue.dequeued, 3u);
  EXPECT_EQ(ls->sent, 3u);
  EXPECT_EQ(r.stack().counters().forwarded, 0u);
  // Serialized back to back at the link rate: the k-th frame cannot
  // arrive before k full serialization times.
  for (std::size_t k = 0; k < arrivals.size(); ++k)
    EXPECT_GE(arrivals[k] - t0, static_cast<util::TimeUs>(8'000 * (k + 1)))
        << k;
}

TEST_F(MeshTest, CrashWipesQueuedFramesAndRestartResumesService) {
  TransitLinkConfig slow;
  slow.bandwidth_bps = 1e6;
  const auto r = build_line(mesh_, 2, slow);
  auto a = make_host(kHostA, r.front());
  auto b = make_host(kHostB, r.back(), slow);
  mesh_.recompute_routes();

  UdpService a_udp(*a), b_udp(*b);
  int delivered = 0;
  b_udp.bind(9, [&](Ipv4Address, std::uint16_t, util::Bytes) { ++delivered; });
  for (int i = 0; i < 10; ++i) a_udp.send(kHostB, 1, 9, util::Bytes(972, 'x'));
  // Crash r0 while most of the burst is still in its egress queue.
  mesh_.crash_router(r[0], clock_.now() + util::TimeUs{10'000},
                     clock_.now() + util::seconds(1));
  net_.run();
  const int delivered_before = delivered;
  EXPECT_LT(delivered_before, 10);
  const auto totals = mesh_.totals();
  EXPECT_GT(totals.wiped, 0u);  // soft state lost with the router

  // Restarted: service resumes.
  a_udp.send(kHostB, 1, 9, util::Bytes(972, 'y'));
  net_.run();
  EXPECT_EQ(delivered, delivered_before + 1);
  EXPECT_EQ(mesh_.router(r[0]).stats().crashes, 1u);
}

TEST_F(MeshTest, LinkFlapReroutesAroundTheDiamond) {
  const auto r = build_diamond(mesh_, {});
  auto a = make_host(kHostA, r[0]);
  auto b = make_host(kHostB, r[3]);
  mesh_.recompute_routes();

  UdpService a_udp(*a), b_udp(*b);
  int delivered = 0;
  b_udp.bind(9, [&](Ipv4Address, std::uint16_t, util::Bytes) { ++delivered; });

  // Deterministic tie-break: the upper path (via r1, the lower address)
  // carries traffic first.
  a_udp.send(kHostB, 1, 9, util::to_bytes("pre"));
  net_.run();
  EXPECT_EQ(delivered, 1);
  const auto upper_sent = [&] { return mesh_.router(r[0]).link_stats(r[1])->sent; };
  const auto lower_sent = [&] { return mesh_.router(r[0]).link_stats(r[2])->sent; };
  EXPECT_EQ(upper_sent(), 1u);
  EXPECT_EQ(lower_sent(), 0u);

  // Flap the upper path; traffic inside the window must take the lower one.
  const util::TimeUs t0 = clock_.now();
  mesh_.flap_link(r[0], r[1], t0 + util::TimeUs{1'000},
                  t0 + util::TimeUs{500'000});
  net_.call_later(util::TimeUs{10'000},
                  [&] { a_udp.send(kHostB, 1, 9, util::to_bytes("mid")); });
  net_.run();
  EXPECT_EQ(delivered, 2);
  EXPECT_EQ(upper_sent(), 1u);
  EXPECT_EQ(lower_sent(), 1u);

  // Healed: the tie-break puts traffic back on the upper path.
  a_udp.send(kHostB, 1, 9, util::to_bytes("post"));
  net_.run();
  EXPECT_EQ(delivered, 3);
  EXPECT_EQ(upper_sent(), 2u);
  EXPECT_EQ(lower_sent(), 1u);
}

TEST_F(MeshTest, OverloadAccountsEveryFrame) {
  TransitLinkConfig slow;
  slow.bandwidth_bps = 1e6;
  slow.queue.capacity = 8;
  const auto r = build_line(mesh_, 2, slow);
  auto a = make_host(kHostA, r.front());
  auto b = make_host(kHostB, r.back(), slow);
  mesh_.recompute_routes();

  UdpService a_udp(*a), b_udp(*b);
  int delivered = 0;
  b_udp.bind(9, [&](Ipv4Address, std::uint16_t, util::Bytes) { ++delivered; });
  for (int i = 0; i < 64; ++i) a_udp.send(kHostB, 1, 9, util::Bytes(972, 'x'));
  net_.run();

  // The 8-deep bottleneck cannot hold a 64-frame burst: drops are expected,
  // and every offered frame lands in exactly one bucket.
  const auto totals = mesh_.totals();
  EXPECT_GT(totals.tail_dropped, 0u);
  EXPECT_EQ(totals.enqueued, totals.dequeued);  // drained to idle
  EXPECT_EQ(totals.dequeued, totals.sent);
  EXPECT_EQ(totals.depth, 0u);
  EXPECT_EQ(delivered, 64 - static_cast<int>(totals.tail_dropped));
}

TEST_F(MeshTest, BackpressurePausesUpstreamThenRecovers) {
  // h_a - r0 --fast-- r1 --slow-- r2 - h_b with backpressure queues: r1's
  // bottleneck egress fills, crosses its high watermark, and r0 (its
  // upstream) pauses instead of overrunning it. With the watchdog set
  // beyond the drain time, xon -- not the timeout -- governs, and the
  // burst survives a bottleneck 4x smaller than it with zero drops.
  TransitLinkConfig fast;
  fast.queue.discipline = QueueDiscipline::kBackpressure;
  fast.queue.capacity = 256;
  fast.pause_timeout = util::seconds(1);
  TransitLinkConfig slow = fast;
  slow.bandwidth_bps = 1e6;
  slow.queue.capacity = 16;  // high watermark 12, low 4

  const Ipv4Address r0 = mesh_router_address(0);
  const Ipv4Address r1 = mesh_router_address(1);
  const Ipv4Address r2 = mesh_router_address(2);
  mesh_.add_router(r0);
  mesh_.add_router(r1);
  mesh_.add_router(r2);
  mesh_.connect(r0, r1, fast);
  mesh_.connect(r1, r2, slow);
  auto a = make_host(kHostA, r0);
  auto b = make_host(kHostB, r2);
  mesh_.recompute_routes();

  UdpService a_udp(*a), b_udp(*b);
  int delivered = 0;
  b_udp.bind(9, [&](Ipv4Address, std::uint16_t, util::Bytes) { ++delivered; });
  for (int i = 0; i < 64; ++i) a_udp.send(kHostB, 1, 9, util::Bytes(972, 'x'));
  net_.run();

  EXPECT_EQ(delivered, 64);
  const auto* upstream = mesh_.router(r0).link_stats(r1);
  ASSERT_NE(upstream, nullptr);
  EXPECT_GE(upstream->pauses, 1u);
  const auto* bottleneck = mesh_.router(r1).link_stats(r2);
  ASSERT_NE(bottleneck, nullptr);
  EXPECT_EQ(bottleneck->queue.tail_dropped, 0u);
  EXPECT_LE(bottleneck->queue.highwater, 16u);
}

TEST_F(MeshTest, PauseWatchdogPreventsPermanentStall) {
  // Pause with no one to resume it (no congestion signal wiring when a
  // router is driven directly): the watchdog must release the link.
  const auto r = build_line(mesh_, 2, {});
  auto a = make_host(kHostA, r[0]);
  auto b = make_host(kHostB, r[1]);
  mesh_.recompute_routes();

  mesh_.router(r[0]).pause_link(r[1]);
  UdpService a_udp(*a), b_udp(*b);
  int delivered = 0;
  b_udp.bind(9, [&](Ipv4Address, std::uint16_t, util::Bytes) { ++delivered; });
  a_udp.send(kHostB, 1, 9, util::to_bytes("stuck?"));
  net_.run();  // must terminate with the frame delivered
  EXPECT_EQ(delivered, 1);
}

TEST_F(MeshTest, RandomMeshIsConnectedAndSurvivesARouterCrash) {
  const auto r = build_random_mesh(mesh_, 12, 6, 99, {});
  EXPECT_EQ(mesh_.edges().size(), 12u + 6u);
  auto a = make_host(kHostA, r[0]);
  auto b = make_host(kHostB, r[7]);
  mesh_.recompute_routes();

  UdpService a_udp(*a), b_udp(*b);
  int delivered = 0;
  b_udp.bind(9, [&](Ipv4Address, std::uint16_t, util::Bytes) { ++delivered; });
  a_udp.send(kHostB, 1, 9, util::to_bytes("one"));
  net_.run();
  EXPECT_EQ(delivered, 1);

  // Kill a neighbor of the source's access router; the ring (plus chords)
  // leaves an alternate path, and the recompute finds it.
  mesh_.crash_router(r[1], clock_.now() + util::TimeUs{1'000},
                     clock_.now() + util::minutes(10));
  net_.call_later(util::TimeUs{10'000},
                  [&] { a_udp.send(kHostB, 1, 9, util::to_bytes("two")); });
  net_.run();
  EXPECT_EQ(delivered, 2);
}

TEST_F(MeshTest, MetricsExposePerLinkCountersMonotonically) {
  const auto r = build_line(mesh_, 2, {});
  auto a = make_host(kHostA, r.front());
  auto b = make_host(kHostB, r.back());
  mesh_.recompute_routes();

  obs::MetricsRegistry reg;
  mesh_.register_metrics(reg, "mesh");

  UdpService a_udp(*a), b_udp(*b);
  b_udp.bind(9, [](Ipv4Address, std::uint16_t, util::Bytes) {});
  const auto before = reg.snapshot();
  a_udp.send(kHostB, 1, 9, util::to_bytes("m"));
  net_.run();
  const auto after = reg.snapshot();

  const std::string key =
      "mesh.r0.link." + r[1].to_string() + ".sent";
  ASSERT_TRUE(after.counters.count(key));
  EXPECT_EQ(after.counters.at(key), before.counters.at(key) + 1);
  for (const auto& [name, value] : after.counters)
    if (before.counters.count(name))
      EXPECT_GE(value, before.counters.at(name)) << name;
}

}  // namespace
}  // namespace fbs::net
