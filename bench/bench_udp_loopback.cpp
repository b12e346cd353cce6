// fig8_udp_loopback: the Figure 8 DES+MD5 workload over real kernel UDP
// sockets on 127.0.0.1 -- the same FBS stacks as fbs_bench_fig8_throughput,
// but with the simulated segment replaced by the UdpTransport backend, so
// the numbers include syscalls, socket buffers and the loopback path.
//
// Both endpoints live in this process (the cross-process variant is the
// ctest `udp` interop test); each has its own socket, stack, and key
// caches, and every datagram crosses the kernel. Gauges land in the
// metrics JSON ($FBS_METRICS_OUT or fbs_bench_fig8_udp_loopback.metrics.json).
// This config is NOT part of the BENCH_seed.json baseline: loopback
// throughput is a property of the host kernel, not of the library, so it
// is recorded for observability rather than regression-gated (see
// EXPERIMENTS.md).
#include <chrono>
#include <cstdio>
#include <memory>

#include "cert/certificate.hpp"
#include "cert/directory.hpp"
#include "crypto/dh.hpp"
#include "fbs/ip_map.hpp"
#include "net/udp.hpp"
#include "net/udp_transport.hpp"
#include "support/metrics_io.hpp"
#include "util/clock.hpp"
#include "util/rng.hpp"

using namespace fbs;

namespace {

struct Host {
  net::Ipv4Address address;
  std::unique_ptr<net::UdpTransport> transport;
  std::unique_ptr<core::MasterKeyDaemon> mkd;
  std::unique_ptr<core::KeyManager> keys;
  std::unique_ptr<net::IpStack> stack;
  std::unique_ptr<core::FbsIpMapping> fbs;
  std::unique_ptr<net::UdpService> udp;
};

bool make_host(Host& host, const char* ip, cert::CertificateAuthority& ca,
               cert::DirectoryService& directory, util::Clock& clock,
               util::RandomSource& rng) {
  host.address = *net::Ipv4Address::parse(ip);
  const auto principal = core::Principal::from_ipv4(host.address);
  const auto& group = crypto::oakley_group1();
  const crypto::DhKeyPair dh = crypto::dh_generate(group, rng);
  directory.publish(ca.issue(principal.address, group.name,
                             dh.public_value.to_bytes_be(group.element_size()),
                             0, clock.now() + util::minutes(60 * 24)));
  host.transport =
      std::make_unique<net::UdpTransport>(clock, net::UdpTransportConfig{});
  if (!host.transport->ok()) {
    std::fprintf(stderr, "transport: %s\n", host.transport->error().c_str());
    return false;
  }
  host.mkd = std::make_unique<core::MasterKeyDaemon>(
      principal, dh.private_value, group, ca, directory, clock);
  host.keys = std::make_unique<core::KeyManager>(*host.mkd);
  host.stack =
      std::make_unique<net::IpStack>(*host.transport, clock, host.address);
  host.fbs = std::make_unique<core::FbsIpMapping>(
      *host.stack, core::IpMappingConfig{}, *host.keys, clock, rng);
  host.udp = std::make_unique<net::UdpService>(*host.stack);
  return true;
}

}  // namespace

int main() {
  util::SteadyClock clock;
  util::SplitMix64 rng(1997);
  cert::CertificateAuthority ca(512, rng);
  cert::DirectoryService directory;

  Host a, b;
  if (!make_host(a, "10.88.0.1", ca, directory, clock, rng) ||
      !make_host(b, "10.88.0.2", ca, directory, clock, rng)) {
    return 1;
  }
  a.transport->add_peer(b.address, "127.0.0.1", b.transport->local_port());
  b.transport->add_peer(a.address, "127.0.0.1", a.transport->local_port());

  std::size_t delivered = 0;
  b.udp->bind(9000, [&](net::Ipv4Address, std::uint16_t, util::Bytes) {
    ++delivered;
  });

  const std::size_t kPayload = 1408;
  const std::size_t kCount = 20'000;
  const util::Bytes payload = util::SplitMix64(1).next_bytes(kPayload);

  // Warm the flow (key derivation + directory fetch off the clock).
  a.udp->send(b.address, 4000, 9000, payload);
  // A never polls its own socket, so nothing drains its seal queue but a
  // full queue or a flush: hand each datagram it holds to B explicitly.
  a.stack->flush();
  while (delivered < 1) b.transport->poll(util::TimeUs{5'000});

  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 1; i < kCount; ++i) {
    a.udp->send(b.address, 4000, 9000, payload);
    // Drain the receiver every few sends so the socket buffer never drops;
    // the poll itself is part of the measured receive cost.
    if (i % 16 == 0) b.transport->poll(util::TimeUs{0});
  }
  a.stack->flush();  // a partly filled last queue
  const auto deadline = t0 + std::chrono::seconds(30);
  while (delivered < kCount &&
         std::chrono::steady_clock::now() < deadline) {
    b.transport->poll(util::TimeUs{10'000});
  }
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  const double kbps = static_cast<double>(delivered) * kPayload * 8.0 /
                      elapsed / 1000.0;
  const double pps = static_cast<double>(delivered) / elapsed;
  const auto& at = a.transport->counters();
  std::printf("fig8_udp_loopback: DES+MD5 over kernel loopback\n"
              "  %zu/%zu datagrams of %zu bytes in %.3f s\n"
              "  %.0f pkt/s, %.0f kb/s payload goodput\n"
              "  tx_wire %llu, send drops %llu\n",
              delivered, kCount, kPayload, elapsed, pps, kbps,
              static_cast<unsigned long long>(at.tx_wire.load()),
              static_cast<unsigned long long>(at.send_failed.load() +
                                              at.oversized.load() +
                                              at.unknown_peer.load()));

  obs::MetricsRegistry reg;
  a.fbs->register_metrics(reg, "a");
  b.fbs->register_metrics(reg, "b");
  a.transport->register_metrics(reg, "a.net");
  b.transport->register_metrics(reg, "b.net");
  const std::size_t got = delivered;
  reg.add_source([=](obs::MetricsRegistry::Emitter& emit) {
    emit.gauge("fig8_udp_loopback.payload_bytes",
               static_cast<double>(kPayload));
    emit.gauge("fig8_udp_loopback.datagrams", static_cast<double>(got));
    emit.gauge("fig8_udp_loopback.elapsed_s", elapsed);
    emit.gauge("fig8_udp_loopback.pkts_per_s", pps);
    emit.gauge("fig8_udp_loopback.goodput_kbps", kbps);
  });
  bench::write_metrics(reg.snapshot(), "fbs_bench_fig8_udp_loopback");
  return delivered == kCount ? 0 : 1;
}
