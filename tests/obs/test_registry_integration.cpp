// End-to-end check of the metrics adapters: every layer of the stack
// registers into one registry and a single snapshot carries the cache 3C
// taxonomy, per-kind receive rejections, keying counters, and per-stage
// latency quantiles -- the acceptance shape of the observability layer.
#include "fbs/metrics.hpp"

#include <gtest/gtest.h>

#include "fbs/engine.hpp"
#include "support/protect.hpp"
#include "support/world.hpp"

namespace fbs::core {
namespace {

using testing::ReceivedDatagram;
using testing::protect;
using testing::unprotect;
using testing::TestWorld;

Datagram make_datagram(const Principal& src, const Principal& dst,
                       const std::string& body) {
  Datagram d;
  d.source = src;
  d.destination = dst;
  d.attrs.protocol = 6;
  d.attrs.source_address = src.ipv4().value;
  d.attrs.source_port = 1000;
  d.attrs.destination_address = dst.ipv4().value;
  d.attrs.destination_port = 23;
  d.body = util::to_bytes(body);
  return d;
}

TEST(RegistryIntegration, OneSnapshotCoversEveryLayer) {
  TestWorld world(7777);
  auto& a = world.add_node("a", "10.0.0.1");
  auto& b = world.add_node("b", "10.0.0.2");
  FbsConfig cfg;
  cfg.trace_stages = true;
  FbsEndpoint alice(a.principal, cfg, *a.keys, world.clock, world.rng);
  FbsEndpoint bob(b.principal, cfg, *b.keys, world.clock, world.rng);

  obs::MetricsRegistry reg;
  alice.register_metrics(reg, "a");
  bob.register_metrics(reg, "b");
  a.keys->register_metrics(reg, "a");
  b.keys->register_metrics(reg, "b");
  a.mkd->register_metrics(reg, "a");
  world.directory.register_metrics(reg, "dir");

  for (int i = 0; i < 5; ++i) {
    const auto wire =
        protect(alice, make_datagram(a.principal, b.principal, "ping"), true);
    ASSERT_TRUE(wire.has_value());
    auto outcome = unprotect(bob, a.principal, *wire);
    ASSERT_TRUE(std::holds_alternative<ReceivedDatagram>(outcome));
  }
  // One tampered datagram exercises a reject path.
  auto wire =
      protect(alice, make_datagram(a.principal, b.principal, "pong"), false);
  ASSERT_TRUE(wire.has_value());
  wire->back() ^= 0xFF;
  (void)unprotect(bob, a.principal, *wire);

  const obs::MetricsSnapshot snap = reg.snapshot();

  // Send/receive counters.
  EXPECT_EQ(snap.counters.at("a.send.datagrams"), 6u);
  EXPECT_EQ(snap.counters.at("a.send.encrypted"), 5u);
  EXPECT_EQ(snap.counters.at("b.recv.accepted"), 5u);
  EXPECT_EQ(snap.counters.at("b.recv.rejected.bad-mac"), 1u);
  // Cache 3C taxonomy present for both flow-key caches.
  EXPECT_TRUE(snap.counters.count("a.cache.tfkc.misses.cold"));
  EXPECT_TRUE(snap.counters.count("b.cache.rfkc.misses.collision"));
  EXPECT_GE(snap.counters.at("b.cache.rfkc.hits"), 1u);
  // Keying layer: MKC + MKD + PVC + directory.
  EXPECT_GE(snap.counters.at("a.upcalls"), 1u);
  EXPECT_GE(snap.counters.at("a.mkd.master_keys_computed"), 1u);
  EXPECT_TRUE(snap.counters.count("a.cache.mkc.hits"));
  EXPECT_TRUE(snap.counters.count("a.cache.pvc.hits"));
  EXPECT_GE(snap.counters.at("dir.fetches"), 1u);
  // Freshness and stage latencies. Every datagram is MACed on send and
  // verified on receive; the five secret DES-CBC datagrams are encrypted by
  // the send cipher stage and decrypted by the receive batch (a burst of
  // one each), the tampered plaintext one by neither.
  EXPECT_EQ(snap.counters.at("b.freshness.fresh"), 6u);
  ASSERT_TRUE(snap.latencies.count("b.stage.recv.batch_crypto"));
  EXPECT_EQ(snap.latencies.at("b.stage.recv.batch_crypto").count, 5u);
  ASSERT_TRUE(snap.latencies.count("b.stage.recv.mac"));
  EXPECT_EQ(snap.latencies.at("b.stage.recv.mac").count, 6u);
  ASSERT_TRUE(snap.latencies.count("a.stage.send.mac"));
  EXPECT_EQ(snap.latencies.at("a.stage.send.mac").count, 6u);
  ASSERT_TRUE(snap.latencies.count("a.stage.send.cipher"));
  EXPECT_EQ(snap.latencies.at("a.stage.send.cipher").count, 5u);

  // The JSON export carries the same names.
  const std::string json = snap.to_json();
  EXPECT_NE(json.find("b.recv.rejected.bad-mac"), std::string::npos);
  EXPECT_NE(json.find("a.cache.tfkc.misses.cold"), std::string::npos);
  EXPECT_NE(json.find("b.stage.recv.mac"), std::string::npos);
}

TEST(RegistryIntegration, TracingOffByDefaultKeepsStagesSilent) {
  TestWorld world(8888);
  auto& a = world.add_node("a", "10.0.0.1");
  auto& b = world.add_node("b", "10.0.0.2");
  FbsEndpoint alice(a.principal, FbsConfig{}, *a.keys, world.clock,
                    world.rng);
  obs::MetricsRegistry reg;
  alice.register_metrics(reg, "a");
  const auto wire =
      protect(alice, make_datagram(a.principal, b.principal, "x"), false);
  ASSERT_TRUE(wire.has_value());
  EXPECT_TRUE(reg.snapshot().latencies.empty());
}

}  // namespace
}  // namespace fbs::core
