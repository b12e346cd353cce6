// Parallel receive throughput: the shard-per-core scaling story.
//
// The paper's kernel implementation is single-threaded by construction; the
// sharded engine removes that ceiling. This bench drives the Figure 8
// DES+MD5 workload (1408-byte UDP payloads) through the DatagramPipeline at
// 1, 2, 4 and 8 workers -- fed by four submitter threads in grouped
// submit() bursts racing a concurrently draining main thread, the shape a real
// multi-queue NIC presents -- and reports two aggregates:
//
//   wall kbps  -- total bytes / wall time, with the feed and the drain
//                 overlapping the workers. This is the number a deployment
//                 sees; it can only scale as far as the host has cores.
//   crit kbps  -- total bytes / max per-worker thread-CPU busy time: the
//                 critical-path aggregate. The per-worker busy clocks are
//                 CPU-time clocks (DatagramPipeline::busy_clock() says
//                 which), so this measures how evenly the flow hash spreads
//                 the cryptographic work across workers and is stable even
//                 when the host has a single core (the workers then
//                 time-slice, but each one's CPU time still sums only its
//                 own datagrams).
//
// Acceptance gates (both enforced by the exit status and re-checked from
// BENCH_seed.json by tools/check.sh --bench-smoke via bench_compare.py):
//
//   crit speedup @4 workers >= 3.0x  -- the sharding story, hardware-blind.
//   wall gate >= 1.0                 -- wall speedup @8 workers divided by
//      a hardware-aware target, clamp(0.35 * hw_concurrency, 0.85, 3.0).
//      On an 8-core box the target is ~2.8x real wall scaling; on a 1-core
//      CI container it degrades to "batching must hold wall throughput
//      within 15% of the 1-worker figure" -- un-serialized coordination,
//      not magic parallelism the silicon cannot provide.
//
// The single-flow run is the negative control: one flow lives on one
// shard, one worker owns it, and no speedup is possible -- per-flow
// ordering is the constraint the pipeline preserves.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <map>
#include <thread>
#include <vector>

#include "fbs/pipeline.hpp"
#include "support/harness.hpp"
#include "support/metrics_io.hpp"

namespace {

using namespace fbs;
using bench::StackConfig;
using bench::TwoHostWorld;

constexpr std::size_t kPayloadBytes = 1408;
constexpr std::size_t kShards = 8;
constexpr std::size_t kFlowsPerShard = 2;
constexpr int kDatagramsPerFlow = 400;
constexpr std::size_t kFeeders = 4;    // submitter threads per run
constexpr std::size_t kChunk = 32;     // wires claimed per feeder grab

core::Datagram datagram(const core::Principal& src,
                        const core::Principal& dst, util::Bytes body,
                        std::uint16_t sport) {
  core::Datagram d;
  d.source = src;
  d.destination = dst;
  d.attrs.protocol = 17;
  d.attrs.source_address = src.ipv4().value;
  d.attrs.source_port = sport;
  d.attrs.destination_address = dst.ipv4().value;
  d.attrs.destination_port = 9000;
  d.body = std::move(body);
  return d;
}

struct Workload {
  std::vector<util::Bytes> wires;  // round-robin across flows
  std::size_t flows = 0;
};

struct RunResult {
  double wall_kbps = 0;
  double crit_kbps = 0;
  std::uint64_t accepted = 0;
};

/// Feed the whole workload through kFeeders submit threads while this
/// thread drains concurrently; report both aggregates.
RunResult run_workload(core::FbsEndpoint& receiver,
                       const core::Principal& sender,
                       const Workload& load, std::size_t workers) {
  core::PipelineConfig pc;
  pc.workers = workers;
  pc.ingress_capacity = load.wires.size() + 1;  // no backpressure drops
  core::DatagramPipeline pipe(receiver, pc);

  net::Ipv4Header h;
  h.protocol = 17;
  h.source = sender.ipv4();

  std::atomic<std::size_t> cursor{0};
  std::atomic<int> feeding{static_cast<int>(kFeeders)};

  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> feeders;
  feeders.reserve(kFeeders);
  for (std::size_t f = 0; f < kFeeders; ++f) {
    feeders.emplace_back([&] {
      std::vector<core::DatagramPipeline::Submission> burst;
      burst.reserve(kChunk);
      for (;;) {
        const std::size_t at =
            cursor.fetch_add(kChunk, std::memory_order_relaxed);
        if (at >= load.wires.size()) break;
        const std::size_t n = std::min(kChunk, load.wires.size() - at);
        burst.clear();
        // Copy: the workload is reused across runs; the copies are what
        // submit consumes.
        for (std::size_t i = 0; i < n; ++i)
          burst.push_back({h, load.wires[at + i]});
        pipe.submit({burst.data(), n});
      }
      feeding.fetch_sub(1, std::memory_order_release);
    });
  }

  // Drain concurrently with the feed so the egress ring never becomes the
  // bottleneck being measured.
  std::uint64_t delivered = 0;
  const core::DatagramPipeline::Sink sink =
      [&](const net::Ipv4Header&, util::Bytes) { ++delivered; };
  while (feeding.load(std::memory_order_acquire) > 0 ||
         pipe.in_flight() > 0) {
    if (pipe.drain(sink) == 0) std::this_thread::yield();
  }
  pipe.drain(sink);
  const std::chrono::duration<double> wall =
      std::chrono::steady_clock::now() - t0;
  for (auto& t : feeders) t.join();

  std::uint64_t max_busy_ns = 0;
  for (std::size_t w = 0; w < pipe.worker_count(); ++w)
    max_busy_ns = std::max(max_busy_ns, pipe.worker_busy_ns(w));

  RunResult r;
  r.accepted = pipe.stats().accepted.load();
  const double bits =
      static_cast<double>(r.accepted) * kPayloadBytes * 8.0;
  r.wall_kbps = bits / 1000.0 / wall.count();
  r.crit_kbps = bits / 1000.0 / (static_cast<double>(max_busy_ns) / 1e9);
  if (r.accepted != load.wires.size() || delivered != r.accepted ||
      pipe.stats().backpressure_drops.load() != 0)
    std::fprintf(stderr, "WARNING: %llu of %zu datagrams accepted\n",
                 static_cast<unsigned long long>(r.accepted),
                 load.wires.size());
  return r;
}

}  // namespace

int main() {
  TwoHostWorld world(StackConfig::kGeneric);  // keys only; no stacks needed
  const core::Principal a = core::Principal::from_ipv4(world.a().address);
  const core::Principal b = core::Principal::from_ipv4(world.b().address);

  core::FbsEndpoint sender(a, core::FbsConfig{}, *world.a().keys,
                           world.clock(), world.rng_public());
  core::FbsConfig recv_config;
  recv_config.shards = kShards;
  core::FbsEndpoint receiver(b, recv_config, *world.b().keys, world.clock(),
                             world.rng_public());

  // Every wire is sealed here, before and outside the timed loops. An
  // empty wire means no master key could be obtained.
  core::WorkContext seal_ctx;
  const auto seal = [&](util::Bytes payload, std::uint16_t port) {
    util::Bytes wire;
    (void)sender.protect_into(seal_ctx,
                              datagram(a, b, std::move(payload), port),
                              /*secret=*/true, wire);
    return wire;
  };

  // Pick flows (source ports) until every receive shard owns exactly
  // kFlowsPerShard of them, so the ideal work split across workers is even
  // and the crit aggregate measures the pipeline, not hash luck.
  std::map<std::size_t, std::vector<std::uint16_t>> shard_flows;
  util::Bytes probe_payload = util::SplitMix64(7).next_bytes(kPayloadBytes);
  std::size_t covered = 0;
  for (std::uint16_t port = 1; covered < kShards * kFlowsPerShard; ++port) {
    const util::Bytes wire = seal(probe_payload, port);
    if (wire.empty()) {
      std::fprintf(stderr, "key unavailable\n");
      return 1;
    }
    const std::size_t shard = receiver.recv_shard_of_wire(a, wire);
    auto& flows = shard_flows[shard];
    if (flows.size() >= kFlowsPerShard) continue;
    flows.push_back(port);
    ++covered;
  }

  // Pre-protect the whole many-flow workload (sender cost is off the
  // clock: this bench measures the receive pipeline), interleaving flows
  // round-robin like a busy receiver's arrival order.
  Workload many;
  many.flows = kShards * kFlowsPerShard;
  util::SplitMix64 payload_rng(11);
  std::vector<std::uint16_t> ports;
  for (const auto& [shard, flows] : shard_flows)
    ports.insert(ports.end(), flows.begin(), flows.end());
  for (int i = 0; i < kDatagramsPerFlow; ++i)
    for (const std::uint16_t port : ports)
      many.wires.push_back(seal(payload_rng.next_bytes(kPayloadBytes), port));

  Workload single;
  single.flows = 1;
  for (int i = 0; i < kDatagramsPerFlow * 4; ++i)
    single.wires.push_back(
        seal(payload_rng.next_bytes(kPayloadBytes), ports[0]));

  obs::MetricsRegistry reg;
  std::printf("Parallel receive throughput, Figure 8 DES+MD5 workload\n");
  std::printf("(%zu flows over %zu shards, %zu datagrams x %zu bytes, "
              "%zu feeder threads, busy clock: %.*s)\n\n",
              many.flows, kShards, many.wires.size(), kPayloadBytes,
              kFeeders,
              static_cast<int>(core::DatagramPipeline::busy_clock().size()),
              core::DatagramPipeline::busy_clock().data());
  std::printf("%8s %14s %14s %12s %12s\n", "workers", "wall kbps",
              "crit kbps", "wall spdup", "crit spdup");

  run_workload(receiver, a, many, 1);  // warm every shard's caches

  double crit1 = 0, wall1 = 0;
  std::map<std::size_t, double> crit, wallk;
  for (const std::size_t workers : {std::size_t{1}, std::size_t{2},
                                    std::size_t{4}, std::size_t{8}}) {
    const RunResult r = run_workload(receiver, a, many, workers);
    crit[workers] = r.crit_kbps;
    wallk[workers] = r.wall_kbps;
    if (workers == 1) {
      crit1 = r.crit_kbps;
      wall1 = r.wall_kbps;
    }
    std::printf("%8zu %14.0f %14.0f %11.2fx %11.2fx\n", workers,
                r.wall_kbps, r.crit_kbps, r.wall_kbps / wall1,
                r.crit_kbps / crit1);
    reg.gauge("parallel.crit_kbps.workers" + std::to_string(workers))
        .set(r.crit_kbps);
    reg.gauge("parallel.wall_kbps.workers" + std::to_string(workers))
        .set(r.wall_kbps);
  }
  const double speedup4 = crit[4] / crit1;
  reg.gauge("parallel.speedup4").set(speedup4);
  reg.gauge("parallel.speedup8").set(crit[8] / crit1);

  // The wall gate: what wall scaling at 8 workers is worth demanding on
  // THIS machine. A fraction of hw_concurrency (coordination, the feeders
  // and the drain all take cycles too), floored at 0.85 (a 1-core host can
  // only demand that batching not make things worse) and capped at 3.0.
  const double wall_speedup8 = wallk[8] / wall1;
  const double hw = static_cast<double>(
      std::max(1u, std::thread::hardware_concurrency()));
  const double wall_target = std::clamp(0.35 * hw, 0.85, 3.0);
  const double wall_gate = wall_speedup8 / wall_target;
  reg.gauge("parallel.wall_speedup8").set(wall_speedup8);
  reg.gauge("parallel.wall_speedup_target").set(wall_target);
  reg.gauge("parallel.wall_gate").set(wall_gate);

  // Negative control: one flow cannot scale (per-flow ordering pins it to
  // one worker); its 4-worker "speedup" should hover around 1.
  const RunResult s1 = run_workload(receiver, a, single, 1);
  const RunResult s4 = run_workload(receiver, a, single, 4);
  const double single_speedup = s4.crit_kbps / s1.crit_kbps;
  std::printf("\nsingle-flow negative control: 1 worker %.0f kbps, "
              "4 workers %.0f kbps (speedup %.2fx, expected ~1)\n",
              s1.crit_kbps, s4.crit_kbps, single_speedup);
  reg.gauge("parallel.single_flow_speedup4").set(single_speedup);

  std::printf("\nacceptance: crit speedup @4 workers = %.2fx "
              "(target >= 3.0x) -- %s\n", speedup4,
              speedup4 >= 3.0 ? "PASS" : "FAIL");
  std::printf("acceptance: wall speedup @8 workers = %.2fx, "
              "hw-aware target %.2fx (hw_concurrency %.0f), gate = %.2f "
              "(>= 1.0) -- %s\n", wall_speedup8, wall_target, hw, wall_gate,
              wall_gate >= 1.0 ? "PASS" : "FAIL");

  bench::write_metrics(reg.snapshot(), "fbs_bench_parallel_throughput");
  return (speedup4 >= 3.0 && wall_gate >= 1.0) ? 0 : 1;
}
