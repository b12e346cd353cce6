// Figure 8: timing results. The paper measured ttcp/rcp throughput between
// Pentium 133s on a dedicated 10 Mb/s Ethernet for three configurations:
//   GENERIC      -- stock 4.4BSD IP               (~7,700 kb/s, wire-limited)
//   FBS NOP      -- FBS with nullified crypto     (~= GENERIC)
//   FBS DES+MD5  -- full confidentiality + MAC    (~3,400 kb/s)
// The paper's two claims are (1) FBS adds very little overhead outside the
// cryptographic operations, and (2) the crypto penalty is heavy. Our
// substrate is a userspace simulator on a modern CPU, so absolute numbers
// differ, but the same shape must appear: NOP within a few percent of
// GENERIC-equivalent processing, DES+MD5 several times slower.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "fbs/metrics.hpp"
#include "net/tcp.hpp"
#include "support/harness.hpp"
#include "support/metrics_io.hpp"

namespace {

using namespace fbs;
using bench::StackConfig;
using bench::TwoHostWorld;

const char* slug(StackConfig c) {
  switch (c) {
    case StackConfig::kGeneric: return "generic";
    case StackConfig::kFbsNop: return "fbs_nop";
    case StackConfig::kFbsMd5Only: return "fbs_md5";
    case StackConfig::kFbsDesMd5: return "fbs_des_md5";
    case StackConfig::kFbsDesMd5Scalar: return "fbs_des_md5_scalar";
    case StackConfig::kFbsDes3Md5: return "fbs_des3_md5";
  }
  return "unknown";
}

/// Push one UDP datagram a->b through the full stack and deliver it.
void pump(TwoHostWorld& world, const util::Bytes& payload) {
  world.a().udp->send(world.b().address, 4000, 9000, payload);
  world.network().run();
}

void run_config(benchmark::State& state, StackConfig config) {
  TwoHostWorld world(config);
  std::uint64_t delivered = 0;
  world.b().udp->bind(9000, [&](net::Ipv4Address, std::uint16_t,
                                util::Bytes) { ++delivered; });
  const util::Bytes payload =
      util::SplitMix64(1).next_bytes(static_cast<std::size_t>(state.range(0)));
  // Warm the flow key caches (the steady state Figure 8 measures).
  pump(world, payload);

  for (auto _ : state) pump(world, payload);
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
  if (delivered == 0) state.SkipWithError("no datagrams delivered");
}

void BM_Generic(benchmark::State& state) {
  run_config(state, StackConfig::kGeneric);
}
void BM_FbsNop(benchmark::State& state) {
  run_config(state, StackConfig::kFbsNop);
}
void BM_FbsMd5Only(benchmark::State& state) {
  run_config(state, StackConfig::kFbsMd5Only);
}
void BM_FbsDesMd5(benchmark::State& state) {
  run_config(state, StackConfig::kFbsDesMd5);
}
void BM_FbsDesMd5Scalar(benchmark::State& state) {
  run_config(state, StackConfig::kFbsDesMd5Scalar);
}
void BM_FbsDes3Md5(benchmark::State& state) {
  run_config(state, StackConfig::kFbsDes3Md5);
}

constexpr int kSizes[] = {64, 512, 1024, 1408};

BENCHMARK(BM_Generic)->Arg(64)->Arg(512)->Arg(1024)->Arg(1408);
BENCHMARK(BM_FbsNop)->Arg(64)->Arg(512)->Arg(1024)->Arg(1408);
BENCHMARK(BM_FbsMd5Only)->Arg(1024)->Arg(1408);
BENCHMARK(BM_FbsDesMd5)->Arg(64)->Arg(512)->Arg(1024)->Arg(1408);
BENCHMARK(BM_FbsDesMd5Scalar)->Arg(1024)->Arg(1408);
BENCHMARK(BM_FbsDes3Md5)->Arg(1024)->Arg(1408);

/// Measure per-packet end-to-end CPU time for one configuration/size.
double seconds_per_packet(StackConfig config, int size, int datagrams) {
  TwoHostWorld world(config);
  world.b().udp->bind(9000,
                      [](net::Ipv4Address, std::uint16_t, util::Bytes) {});
  const util::Bytes payload =
      util::SplitMix64(1).next_bytes(static_cast<std::size_t>(size));
  pump(world, payload);  // cache warmup
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < datagrams; ++i) pump(world, payload);
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  return elapsed.count() / datagrams;
}

/// ttcp-style summary printed before the google-benchmark runs.
///
/// The paper's testbed was wire-limited: a 10 Mb/s Ethernet carries a 1408B
/// payload in ~1.2 ms, so the P133's few-microsecond FBS NOP overhead was
/// invisible (NOP ~= GENERIC) while its ~0.5 ms/KB crypto pushed the CPU
/// past the wire budget (7700 -> 3400 kb/s). A 2020s CPU runs the whole
/// userspace stack in microseconds, so we report (a) raw per-packet CPU
/// cost -- which verifies claim (1), "FBS incurs very little overhead
/// outside of the cryptographic operations" -- and (b) throughput on an
/// emulated wire chosen, like the paper's, to sit between the plain and
/// crypto processing rates, which recovers the Figure 8 shape. Only (a)
/// is exported as gauges: (b) is a function of (a) and the wire constant.
void print_summary(obs::MetricsRegistry& reg) {
  constexpr int kDatagrams = 3000;
  constexpr double kWireBitsPerSec = 100e6;  // modern analogue of the 10Mb
  std::printf("Figure 8 reproduction\n");
  std::printf("(paper, P133 + 10Mb Ethernet: GENERIC ~7700 kb/s, FBS NOP "
              "~= GENERIC, FBS DES+MD5 ~3400 kb/s)\n\n");

  // Per-suite curves: the paper's three configurations plus the cipher
  // ladder this implementation adds -- MD5-only, DES+MD5 on the scalar
  // core, DES+MD5 with the bitsliced batch path, and 3DES+MD5.
  constexpr int kConfigs = 6;
  double cpu[kConfigs][4] = {};
  const StackConfig configs[kConfigs] = {
      StackConfig::kGeneric,        StackConfig::kFbsNop,
      StackConfig::kFbsMd5Only,     StackConfig::kFbsDesMd5Scalar,
      StackConfig::kFbsDesMd5,      StackConfig::kFbsDes3Md5};

  std::printf("--- per-packet CPU cost (full send+receive path), us ---\n");
  std::printf("%-20s", "payload bytes");
  for (int size : kSizes) std::printf("%12d", size);
  std::printf("\n");
  for (int c = 0; c < kConfigs; ++c) {
    std::printf("%-20s", to_string(configs[c]));
    for (int s = 0; s < 4; ++s) {
      cpu[c][s] = seconds_per_packet(configs[c], kSizes[s], kDatagrams);
      std::printf("%12.2f", cpu[c][s] * 1e6);
      reg.gauge(std::string("fig8.cpu_us_per_pkt.") + slug(configs[c]) +
                "." + std::to_string(kSizes[s]))
          .set(cpu[c][s] * 1e6);
    }
    std::printf("\n");
  }

  const double protocol_overhead = (cpu[1][3] - cpu[0][3]) * 1e6;
  const double crypto_overhead = (cpu[4][3] - cpu[1][3]) * 1e6;
  std::printf("\nclaim (1), @1408B: FBS protocol overhead excluding crypto "
              "= %.2f us/pkt; crypto adds %.2f us/pkt\n"
              "  -> %.1f%% of the FBS cost is cryptography (paper: \"very "
              "little overhead outside of the cryptographic operations\")\n",
              protocol_overhead, crypto_overhead,
              100.0 * crypto_overhead / (protocol_overhead + crypto_overhead));

  std::printf("\n--- throughput on an emulated %.0f Mb/s wire "
              "(min(wire, CPU) per packet), kb/s ---\n",
              kWireBitsPerSec / 1e6);
  std::printf("%-20s", "payload bytes");
  for (int size : kSizes) std::printf("%12d", size);
  std::printf("\n");
  double emu[kConfigs][4];
  for (int c = 0; c < kConfigs; ++c) {
    std::printf("%-20s", to_string(configs[c]));
    for (int s = 0; s < 4; ++s) {
      const double wire_time = kSizes[s] * 8.0 / kWireBitsPerSec;
      const double per_packet = std::max(wire_time, cpu[c][s]);
      emu[c][s] = kSizes[s] * 8.0 / 1000.0 / per_packet;
      std::printf("%12.0f", emu[c][s]);
    }
    std::printf("\n");
  }
  std::printf("\nclaim (2), shape @1408B: NOP/GENERIC = %.2f (paper ~1.0), "
              "DES+MD5/GENERIC = %.2f (paper ~0.44: heavy crypto penalty)\n",
              emu[1][3] / emu[0][3], emu[4][3] / emu[0][3]);
  std::printf("cipher ladder @1408B, us/pkt: DES scalar %.2f -> DES "
              "bitsliced %.2f (%.2fx), 3DES %.2f (%.2fx scalar DES)\n\n",
              cpu[3][3] * 1e6, cpu[4][3] * 1e6, cpu[3][3] / cpu[4][3],
              cpu[5][3] * 1e6, cpu[5][3] / cpu[3][3]);
}

/// Analytic replication of the paper's absolute numbers: steady-state
/// throughput is bounded by the slowest pipeline stage -- the 10 Mb/s wire
/// or the P133's crypto (CryptoLib rates from Section 7.2: DES-CBC
/// 549 kB/s, MD5 7060 kB/s) -- times a ttcp efficiency factor (ACKs,
/// headers, scheduling) fitted once on the GENERIC row.
void print_p133_model() {
  constexpr double kWire = 10e6;        // bits/second
  constexpr double kDes = 549e3;        // bytes/second
  constexpr double kMd5 = 7060e3;       // bytes/second
  constexpr double kEfficiency = 0.80;  // fits GENERIC = 7.7 of 10 Mb/s
  constexpr double kHeaders = 58;       // eth+ip+tcp per packet

  std::printf("--- analytic model with the paper's own P133 rates ---\n");
  std::printf("%-20s %16s %16s\n", "@1408B payload", "model kb/s",
              "paper kb/s");
  struct Row {
    const char* name;
    double crypto_seconds;  // per packet, on the bottleneck CPU
    const char* paper;
  };
  const double p = 1408;
  const Row rows[] = {
      {"GENERIC", 0.0, "~7700"},
      {"FBS NOP", 0.0, "~= GENERIC"},
      {"FBS DES+MD5", p / kDes + p / kMd5, "~3400"},
  };
  for (const Row& row : rows) {
    const double wire_time = (p + kHeaders) * 8.0 / kWire;
    const double per_packet = std::max(wire_time, row.crypto_seconds);
    const double kbps = p * 8.0 / 1000.0 / per_packet * kEfficiency;
    std::printf("%-20s %16.0f %16s\n", row.name, kbps, row.paper);
  }
  std::printf("(the crypto-vs-wire balance, not the hardware, sets Figure "
              "8's shape -- the model lands on the paper's numbers)\n\n");
}

/// The paper's second tool was rcp: a TCP bulk copy. Move 1 MB over our TCP
/// (handshake, windowing, retransmission machinery all active) per config.
void print_tcp_summary() {
  constexpr std::size_t kFileSize = 1 << 20;
  std::printf("--- rcp-style TCP transfer of %zu KB (CPU cost incl. TCP "
              "machinery) ---\n",
              kFileSize / 1024);
  std::printf("%-20s %14s %14s %14s\n", "", "wall time ms", "CPU MB/s",
              "segments");
  for (StackConfig config :
       {StackConfig::kGeneric, StackConfig::kFbsNop,
        StackConfig::kFbsDesMd5}) {
    TwoHostWorld world(config);
    net::TcpService a_tcp(*world.a().stack, world.network(),
                          world.rng_public());
    net::TcpService b_tcp(*world.b().stack, world.network(),
                          world.rng_public());
    std::size_t received = 0;
    b_tcp.listen(5001, [&](std::shared_ptr<net::TcpConnection> conn) {
      conn->on_receive(
          [&, conn](util::BytesView d) { received += d.size(); });
    });
    auto client = a_tcp.connect(world.b().address, 5001);
    const util::Bytes file = util::SplitMix64(2).next_bytes(kFileSize);

    const auto start = std::chrono::steady_clock::now();
    client->send(file);
    world.network().run();
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;

    std::printf("%-20s %14.1f %14.1f %14llu   %s\n", to_string(config),
                elapsed.count() * 1e3,
                static_cast<double>(received) / 1e6 / elapsed.count(),
                static_cast<unsigned long long>(
                    client->counters().segments_sent),
                received == kFileSize ? "" : "INCOMPLETE!");
  }
  std::printf("\n");
}

/// A separate instrumented run with stage tracing enabled: the timed runs
/// above stay unperturbed (tracing adds clock reads to the datagram path),
/// while the snapshot still carries real per-stage latency quantiles and
/// the full cache/keying counter set for the DES+MD5 configuration.
void emit_metrics(obs::MetricsRegistry& reg) {
  TwoHostWorld world(StackConfig::kFbsDesMd5, 1997, /*trace_stages=*/true);
  world.b().udp->bind(9000,
                      [](net::Ipv4Address, std::uint16_t, util::Bytes) {});
  world.a().fbs->register_metrics(reg, "a");
  world.b().fbs->register_metrics(reg, "b");
  world.network().register_metrics(reg, "net");
  const util::Bytes payload = util::SplitMix64(1).next_bytes(1408);
  for (int i = 0; i < 500; ++i) pump(world, payload);
  bench::write_metrics(reg.snapshot(), "fbs_bench_fig8_throughput");
}

}  // namespace

int main(int argc, char** argv) {
  obs::MetricsRegistry reg;
  print_summary(reg);
  print_p133_model();
  print_tcp_summary();
  emit_metrics(reg);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
