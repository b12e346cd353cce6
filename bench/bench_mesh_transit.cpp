// Transit-mesh goodput: an FBS DES+MD5 tunnel crossing a two-router
// transit fabric whose bottleneck link runs each queue discipline
// (DESIGN.md section 5g), at offered loads from half to twice the
// bottleneck's service rate. The interesting shape: goodput tracks offered
// load until saturation, then flattens at (payload/wire-bytes) x link rate
// instead of collapsing -- drops are absorbed by the queue discipline, and
// RED sheds early while FIFO sheds at the tail.
#include <cstdio>
#include <string>
#include <vector>

#include "support/harness.hpp"
#include "support/metrics_io.hpp"
#include "support/transit_mesh.hpp"

using namespace fbs;

namespace {

struct MeshRun {
  std::size_t offered = 0;
  std::size_t delivered = 0;
  double goodput_mbps = 0;
  std::uint64_t tail_dropped = 0;
  std::uint64_t red_dropped = 0;
  std::size_t highwater = 0;
};

MeshRun run_load(net::QueueDiscipline discipline, double load) {
  bench::TwoHostWorld world(bench::StackConfig::kFbsDesMd5, 1997);

  net::TransitLinkConfig bottleneck;
  bottleneck.bandwidth_bps = 2e6;
  bottleneck.queue.discipline = discipline;
  bottleneck.queue.capacity = 32;
  net::TransitLinkConfig access;
  access.bandwidth_bps = 100e6;
  access.queue.capacity = 256;

  net::MeshNetwork mesh(world.network(), world.clock(), world.rng_public());
  const net::Ipv4Address r0 = net::mesh_router_address(0);
  const net::Ipv4Address r1 = net::mesh_router_address(1);
  mesh.add_router(r0);
  mesh.add_router(r1);
  mesh.connect(r0, r1, bottleneck);
  mesh.attach_host(world.a().address, r0, access);
  mesh.attach_host(world.b().address, r1, access);
  world.a().stack->set_default_route(r0);
  world.b().stack->set_default_route(r1);
  mesh.recompute_routes();

  std::size_t delivered_payloads = 0;
  world.b().udp->bind(9000, [&](net::Ipv4Address, std::uint16_t,
                                util::Bytes) { ++delivered_payloads; });

  // ~1070 wire bytes per 1000-byte payload after FBS + IP/UDP framing:
  // ~4.3 ms serialization at 2 Mb/s, so `interval = 4.3ms / load`.
  const std::size_t kPayload = 1000;
  const util::TimeUs frame_time{4300};
  const auto interval =
      static_cast<util::TimeUs>(static_cast<double>(frame_time) / load);
  const int count = static_cast<int>(2'000'000 / interval);
  const util::Bytes payload(kPayload, 0x5A);

  std::size_t offered = 0;
  const util::TimeUs t0 = world.clock().now();
  for (int i = 0; i < count; ++i) {
    world.network().call_later(interval * i, [&world, &payload, &offered] {
      if (world.a().udp->send(world.b().address, 4000, 9000, payload))
        ++offered;
    });
  }
  world.network().run();

  MeshRun out;
  out.offered = offered;
  out.delivered = delivered_payloads;
  const double elapsed_us =
      static_cast<double>(world.clock().now() - t0);
  out.goodput_mbps = static_cast<double>(delivered_payloads) * kPayload *
                     8.0 / elapsed_us;  // bytes/us -> Mb/s
  const auto* ls = mesh.router(r0).link_stats(r1);
  out.tail_dropped = ls->queue.tail_dropped;
  out.red_dropped = ls->queue.red_dropped;
  out.highwater = ls->queue.highwater;
  return out;
}

}  // namespace

int main() {
  std::printf("Transit-mesh tunnel goodput vs offered load\n");
  std::printf("bottleneck 2 Mb/s, queue capacity 32, FBS DES+MD5, 1000-byte "
              "payloads\n\n");
  std::printf("%-14s %6s %9s %10s %12s %10s %10s %10s\n", "discipline",
              "load", "offered", "delivered", "goodput Mb/s", "tail drop",
              "red drop", "highwater");

  obs::MetricsRegistry reg;
  const net::QueueDiscipline disciplines[] = {
      net::QueueDiscipline::kFifoTailDrop, net::QueueDiscipline::kRed,
      net::QueueDiscipline::kBackpressure};
  const double loads[] = {0.5, 1.0, 1.5, 2.0};
  for (net::QueueDiscipline d : disciplines) {
    for (double load : loads) {
      const MeshRun r = run_load(d, load);
      std::printf("%-14s %5.1fx %9zu %10zu %12.3f %10llu %10llu %10zu\n",
                  net::to_string(d), load, r.offered, r.delivered,
                  r.goodput_mbps,
                  static_cast<unsigned long long>(r.tail_dropped),
                  static_cast<unsigned long long>(r.red_dropped),
                  r.highwater);
      const std::string p = std::string("mesh.") + net::to_string(d) +
                            ".load" + std::to_string(load).substr(0, 3);
      reg.gauge(p + ".goodput_mbps").set(r.goodput_mbps);
      reg.counter(p + ".offered").add(r.offered);
      reg.counter(p + ".delivered").add(r.delivered);
      reg.counter(p + ".tail_dropped").add(r.tail_dropped);
      reg.counter(p + ".red_dropped").add(r.red_dropped);
    }
    std::printf("\n");
  }
  bench::write_metrics(reg.snapshot(), "fbs_bench_mesh_transit");
  return 0;
}
