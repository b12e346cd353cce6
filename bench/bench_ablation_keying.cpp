// Keying-scheme ablation (Section 7.4 and DESIGN.md section 4): what does a
// protected datagram cost under each keying architecture, in steady state?
//
//   FBS (combined FST+TFKC)   key derivation once per flow, 1 table probe
//   FBS (split FAM + TFKC)    same crypto, 2 probes (the Section 7.2 ablation)
//   SKIP-like                 key derivation (MD5) on EVERY datagram
//   host-pair + per-dgram key BBS-generated key per datagram (the paper's
//                             Section 2.2 bottleneck) vs an LCG stand-in
//   KDC session               steady state after the setup round trip
//   host-pair raw             cheapest and weakest (no MAC)
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <memory>

#include "baselines/hostpair.hpp"
#include "baselines/kdc.hpp"
#include "baselines/perdatagram.hpp"
#include "baselines/skiplike.hpp"
#include "crypto/bbs.hpp"
#include "fbs/engine.hpp"
#include "fbs/metrics.hpp"
#include "support/harness.hpp"
#include "support/metrics_io.hpp"

#include <cstdio>

namespace {

using namespace fbs;

/// Protocol-level world (no IP stack): two keyed principals.
struct KeyedPair {
  KeyedPair()
      : rng(77),
        clock(util::minutes(1000)),
        ca(512, rng),
        directory(0, nullptr) {
    auto make = [&](const char* ip) {
      Node n;
      n.principal = core::Principal::from_ipv4(*net::Ipv4Address::parse(ip));
      n.dh = crypto::dh_generate(crypto::test_group(), rng);
      directory.publish(ca.issue(
          n.principal.address, crypto::test_group().name,
          n.dh.public_value.to_bytes_be(crypto::test_group().element_size()),
          0, clock.now() + util::minutes(1000000)));
      n.mkd = std::make_unique<core::MasterKeyDaemon>(
          n.principal, n.dh.private_value, crypto::test_group(), ca,
          directory, clock);
      n.keys = std::make_unique<core::KeyManager>(*n.mkd);
      return n;
    };
    a = make("10.0.0.1");
    b = make("10.0.0.2");
  }

  core::Datagram datagram(std::size_t payload) {
    core::Datagram d;
    d.source = a.principal;
    d.destination = b.principal;
    d.attrs.protocol = 17;
    d.attrs.source_address = d.source.ipv4().value;
    d.attrs.source_port = 4000;
    d.attrs.destination_address = d.destination.ipv4().value;
    d.attrs.destination_port = 9000;
    d.body = rng.next_bytes(payload);
    return d;
  }

  struct Node {
    core::Principal principal;
    crypto::DhKeyPair dh;
    std::unique_ptr<core::MasterKeyDaemon> mkd;
    std::unique_ptr<core::KeyManager> keys;
  };

  util::SplitMix64 rng;
  util::VirtualClock clock;
  cert::CertificateAuthority ca;
  cert::DirectoryService directory;
  Node a, b;
};

constexpr std::size_t kPayload = 64;  // small datagrams: key-handling cost visible, not drowned by bulk DES

void BM_FbsCombined(benchmark::State& state) {
  KeyedPair world;
  core::FbsConfig cfg;  // combined_fst_tfkc = true
  core::FbsEndpoint sender(world.a.principal, cfg, *world.a.keys, world.clock,
                           world.rng);
  const core::Datagram d = world.datagram(kPayload);
  core::WorkContext ctx;
  util::Bytes wire;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sender.protect_into(ctx, d, true, wire));
    benchmark::DoNotOptimize(wire.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kPayload);
}
BENCHMARK(BM_FbsCombined);

void BM_FbsSplit(benchmark::State& state) {
  KeyedPair world;
  core::FbsConfig cfg;
  cfg.combined_fst_tfkc = false;
  core::FbsEndpoint sender(world.a.principal, cfg, *world.a.keys, world.clock,
                           world.rng);
  const core::Datagram d = world.datagram(kPayload);
  core::WorkContext ctx;
  util::Bytes wire;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sender.protect_into(ctx, d, true, wire));
    benchmark::DoNotOptimize(wire.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kPayload);
}
BENCHMARK(BM_FbsSplit);

void BM_SkipLike(benchmark::State& state) {
  KeyedPair world;
  baselines::SkipLikeProtocol sender(world.a.principal, *world.a.keys,
                                     world.rng);
  const core::Datagram d = world.datagram(kPayload);
  for (auto _ : state) benchmark::DoNotOptimize(sender.protect(d));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kPayload);
}
BENCHMARK(BM_SkipLike);

void BM_HostPairRaw(benchmark::State& state) {
  KeyedPair world;
  baselines::HostPairProtocol sender(world.a.principal, *world.a.keys,
                                     world.rng);
  const core::Datagram d = world.datagram(kPayload);
  for (auto _ : state) benchmark::DoNotOptimize(sender.protect(d));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kPayload);
}
BENCHMARK(BM_HostPairRaw);

void BM_PerDatagramKeyLcg(benchmark::State& state) {
  KeyedPair world;
  util::Lcg48 key_rng(5);  // INSECURE stand-in, shows the best case
  util::SplitMix64 iv_rng(6);
  baselines::PerDatagramKeyProtocol sender(world.a.principal, *world.a.keys,
                                           key_rng, iv_rng);
  const core::Datagram d = world.datagram(kPayload);
  for (auto _ : state) benchmark::DoNotOptimize(sender.protect(d));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kPayload);
}
BENCHMARK(BM_PerDatagramKeyLcg);

void BM_PerDatagramKeyBbs(benchmark::State& state) {
  // The faithful configuration the paper warns about: cryptographically
  // random per-datagram keys from the quadratic-residue generator.
  KeyedPair world;
  util::SplitMix64 seeder(7);
  crypto::BlumBlumShub bbs = crypto::BlumBlumShub::generate(512, seeder);
  util::SplitMix64 iv_rng(8);
  baselines::PerDatagramKeyProtocol sender(world.a.principal, *world.a.keys,
                                           bbs, iv_rng);
  const core::Datagram d = world.datagram(kPayload);
  for (auto _ : state) benchmark::DoNotOptimize(sender.protect(d));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kPayload);
}
BENCHMARK(BM_PerDatagramKeyBbs);

void BM_KdcSteadyState(benchmark::State& state) {
  KeyedPair world;
  baselines::KeyDistributionCenter kdc(world.rng, util::seconds(1),
                                       &world.clock);
  baselines::KdcSessionProtocol sender(world.a.principal,
                                       kdc.enroll(world.a.principal), kdc,
                                       world.rng);
  (void)kdc.enroll(world.b.principal);
  const core::Datagram d = world.datagram(kPayload);
  (void)sender.protect(d);  // pay the setup round trip outside the loop
  for (auto _ : state) benchmark::DoNotOptimize(sender.protect(d));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kPayload);
}
BENCHMARK(BM_KdcSteadyState);

void BM_FbsNewFlowEveryDatagram(benchmark::State& state) {
  // Worst case for FBS: every datagram starts a new flow (per-datagram
  // policy cost = flow-key MD5 each time). Compare with BM_FbsCombined to
  // see what the flow abstraction buys.
  KeyedPair world;
  core::FbsConfig cfg;
  core::FbsEndpoint sender(world.a.principal, cfg, *world.a.keys, world.clock,
                           world.rng);
  core::Datagram d = world.datagram(kPayload);
  core::WorkContext ctx;
  util::Bytes wire;
  std::uint16_t port = 1;
  for (auto _ : state) {
    d.attrs.source_port = port++;  // forces a new flow every time
    benchmark::DoNotOptimize(sender.protect_into(ctx, d, true, wire));
    benchmark::DoNotOptimize(wire.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kPayload);
}
BENCHMARK(BM_FbsNewFlowEveryDatagram);

/// Section 2's core argument, quantified: how many extra messages and how
/// much hard state does each scheme need to let M hosts hold C concurrent
/// conversations? FBS: zero messages, zero hard state -- datagram semantics
/// preserved. Session/KDC schemes pay per peer or per session.
void print_setup_cost_table() {
  std::printf("Setup-cost model: M hosts, each talking to every other, C "
              "conversations per pair\n");
  std::printf("%-28s %22s %24s\n", "scheme", "setup messages",
              "hard state entries/host");
  std::printf("%-28s %22s %24s\n", "FBS (zero-message keying)", "0",
              "0  (all state soft)");
  std::printf("%-28s %22s %24s\n", "SKIP-like", "0",
              "0  (also zero-message)");
  std::printf("%-28s %22s %24s\n", "KDC session (Kerberos-ish)",
              "2 x pairs x C  (RTT each)", "2 x peers x C");
  std::printf("%-28s %22s %24s\n", "DH exchange (Photuris-ish)",
              ">= 4 x pairs x C", "peers x C");
  std::printf("\nexample M=32, C=4: pairs=496 -> KDC needs 3968 setup "
              "messages and blocking round trips before the first byte;\n"
              "FBS sends the first protected datagram immediately "
              "(Section 2.1's efficiency-vs-semantics tradeoff dissolved).\n\n");
}

/// What one flow-key miss costs, in ns, self-timed as the best of several
/// short repetitions (a shared host only ever adds time):
///   keying.flow_context_ns  building a flow's crypto context from K_f (DES
///                           key schedule + keyed-MD5 MAC context)
///   keying.rfkc_miss_ns     a whole receive-side RFKC miss on a new flow:
///                           lookup (and miss classification), master key,
///                           K_f derivation, context build, insert
void emit_miss_costs(KeyedPair& world, obs::MetricsRegistry& reg) {
  constexpr int kOps = 4096;
  constexpr int kReps = 7;
  const auto best_ns = [&](auto&& op) {
    double best = 1e30;
    for (int rep = 0; rep < kReps; ++rep) {
      const auto start = std::chrono::steady_clock::now();
      for (int i = 0; i < kOps; ++i) op(rep * kOps + i);
      const std::chrono::duration<double, std::nano> elapsed =
          std::chrono::steady_clock::now() - start;
      best = std::min(best, elapsed.count() / kOps);
    }
    return best;
  };
  const auto mac = crypto::make_mac(crypto::MacAlgorithm::kKeyedMd5);
  const crypto::AlgorithmSuite suite = crypto::default_suite();
  crypto::Md5 kdf;
  util::Bytes master;
  core::FlowKey key{};
  reg.gauge("keying.flow_context_ns").set(best_ns([&](int i) {
    key[0] = static_cast<std::uint8_t>(i);
    key[1] = static_cast<std::uint8_t>(i >> 8);
    benchmark::DoNotOptimize(core::make_flow_crypto_context(key, suite, *mac));
  }));

  // The engine's receive resolve for a datagram of a flow never seen: the
  // RFKC key is (sfl, S, D) and every sfl is new.
  core::SetAssociativeCache<core::FlowCryptoContext> rfkc(256);
  const core::Principal& src = world.a.principal;
  const core::Principal& self = world.b.principal;
  util::Bytes cache_key;
  reg.gauge("keying.rfkc_miss_ns").set(best_ns([&](int i) {
    const core::Sfl sfl = 0x5000'0000u + static_cast<core::Sfl>(i);
    cache_key.clear();
    for (int b = 7; b >= 0; --b)
      cache_key.push_back(static_cast<std::uint8_t>(sfl >> (8 * b)));
    cache_key.insert(cache_key.end(), src.address.begin(), src.address.end());
    cache_key.insert(cache_key.end(), self.address.begin(),
                     self.address.end());
    if (rfkc.lookup(cache_key) != nullptr ||
        !world.b.keys->master_key_into(src, master))
      return;
    rfkc.insert(cache_key,
                core::make_flow_crypto_context(
                    core::derive_flow_key(kdf, sfl, master, src, self), suite,
                    *mac));
  }));
}

/// Instrumented steady-state pass (separate from the timed loops above):
/// both FBS table layouts protect the same stream with stage tracing on,
/// so the snapshot carries per-stage latencies and the cache/FAM counters
/// that explain the combined-vs-split gap.
void emit_metrics() {
  KeyedPair world;
  obs::MetricsRegistry reg;
  core::FbsConfig combined_cfg;
  combined_cfg.trace_stages = true;
  core::FbsEndpoint combined(world.a.principal, combined_cfg, *world.a.keys,
                             world.clock, world.rng);
  core::FbsConfig split_cfg;
  split_cfg.combined_fst_tfkc = false;
  split_cfg.trace_stages = true;
  core::FbsEndpoint split(world.a.principal, split_cfg, *world.a.keys,
                          world.clock, world.rng);
  combined.register_metrics(reg, "combined");
  split.register_metrics(reg, "split");
  const core::Datagram d = world.datagram(kPayload);
  core::WorkContext ctx;
  util::Bytes wire;
  for (int i = 0; i < 1000; ++i) {
    (void)combined.protect_into(ctx, d, true, wire);
    (void)split.protect_into(ctx, d, true, wire);
  }
  emit_miss_costs(world, reg);
  bench::write_metrics(reg.snapshot(), "fbs_bench_ablation_keying");
}

}  // namespace

int main(int argc, char** argv) {
  print_setup_cost_table();
  emit_metrics();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
