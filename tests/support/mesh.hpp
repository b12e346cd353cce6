// Mesh scenario harness: FBS endpoints attached to a multi-hop transit
// fabric (support/transit_mesh.hpp), with the same auditing spine as the
// two-host chaos rig -- a PayloadLedger for genuineness/leak checks, a
// seeded schedule RNG, and per-host delivery bookkeeping. Scenarios
// compose a topology, attach hosts, schedule traffic and router-granularity
// faults, and then assert the survival invariants:
//   1. every delivered payload is byte-identical to one that was sent;
//   2. no payload is ever delivered twice (replay/duplication rejected);
//   3. secret payloads never cross any link in plaintext;
//   4. frames are conserved -- every one is delivered or dropped for a
//      named, counted reason, at both the wire and the queue layer;
//   5. once faults cease, traffic converges back to 100% delivery.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "fbs/ip_map.hpp"
#include "net/udp.hpp"
#include "support/chaos.hpp"
#include "support/transit_mesh.hpp"
#include "support/world.hpp"

namespace fbs::testing {

/// An edge host behind an access router: a plain IP stack, optionally
/// FBS-protected, a UDP service, and sent/delivered bookkeeping.
struct MeshHost {
  std::string name;
  TestWorld::Node* node = nullptr;          // null for plain (noise) hosts
  std::unique_ptr<net::IpStack> stack;
  std::unique_ptr<core::FbsIpMapping> fbs;  // null for plain hosts
  std::unique_ptr<net::UdpService> udp;
  std::vector<util::Bytes> delivered;
  std::size_t sent_ok = 0;

  net::Ipv4Address address() const { return stack->address(); }

  /// Deliveries beyond the first of the same payload -- the "no datagram
  /// accepted twice" invariant (payloads are unique random bytes).
  std::size_t duplicate_deliveries() const {
    std::map<util::Bytes, int> seen;
    std::size_t dup = 0;
    for (const auto& p : delivered)
      if (++seen[p] > 1) ++dup;
    return dup;
  }
};

class MeshScenarioRig {
 public:
  explicit MeshScenarioRig(std::uint64_t seed)
      : world(seed),
        schedule_rng(seed * 0x9E3779B97F4A7C15ULL + 1),
        ledger(seed ^ 0xC0FFEE),
        net(world.clock, seed + 17),
        mesh(net, world.clock, world.rng) {
    net.set_tap([this](net::Ipv4Address from, net::Ipv4Address to,
                       util::Bytes& frame) {
      if (ledger.leaks_into(frame)) ++plaintext_leaks_;
      if (frame_observer_) frame_observer_(from, to, frame);
      return net::SimNetwork::TapVerdict::kPass;
    });
  }

  /// FBS-speaking host: principal + published cert + MKD/MKC (TestWorld),
  /// IP stack with the FBS hooks installed, attached behind `access_router`.
  MeshHost& add_fbs_host(const std::string& name, const std::string& ip,
                         net::Ipv4Address access_router,
                         const core::IpMappingConfig& config = {},
                         const net::TransitLinkConfig& access = {}) {
    auto host = std::make_unique<MeshHost>();
    host->name = name;
    host->node = &world.add_node(name, ip);
    host->stack = std::make_unique<net::IpStack>(
        net, world.clock, *net::Ipv4Address::parse(ip));
    host->fbs = std::make_unique<core::FbsIpMapping>(
        *host->stack, config, *host->node->keys, world.clock, world.rng);
    return attach(std::move(host), access_router, access);
  }

  /// Unprotected host (cross traffic / queue-overflow noise): no principal,
  /// no FBS hooks, just UDP over the routed fabric.
  MeshHost& add_plain_host(const std::string& name, const std::string& ip,
                           net::Ipv4Address access_router,
                           const net::TransitLinkConfig& access = {}) {
    auto host = std::make_unique<MeshHost>();
    host->name = name;
    host->stack = std::make_unique<net::IpStack>(
        net, world.clock, *net::Ipv4Address::parse(ip));
    return attach(std::move(host), access_router, access);
  }

  /// Collect everything arriving on `port` into the host's delivered list.
  void open_sink(MeshHost& host, std::uint16_t port) {
    MeshHost* hp = &host;
    host.udp->bind(port,
                   [hp](net::Ipv4Address, std::uint16_t, util::Bytes p) {
                     hp->delivered.push_back(std::move(p));
                   });
  }

  /// Schedule one datagram `at_delay` from now. Audited sends draw a unique
  /// ledger payload (genuineness/leak checks apply); unaudited sends are
  /// noise traffic that is allowed to travel in plaintext.
  void schedule_send(MeshHost& from, net::Ipv4Address to, std::uint16_t dport,
                     util::TimeUs at_delay, std::size_t size,
                     std::uint16_t sport = 4000, bool audit = true) {
    util::Bytes payload =
        audit ? ledger.make_payload(size) : schedule_rng.next_bytes(size);
    MeshHost* fp = &from;
    net.call_later(at_delay,
                   [fp, to, sport, dport, payload = std::move(payload)] {
                     if (fp->udp->send(to, sport, dport, payload))
                       ++fp->sent_ok;
                   });
  }

  /// Uniform draw in [0, range) from the schedule RNG.
  util::TimeUs draw(util::TimeUs range) {
    return static_cast<util::TimeUs>(
        schedule_rng.next_below(static_cast<std::uint64_t>(range)));
  }

  /// Observe every frame the tap sees (e.g. to capture wire images for a
  /// replay-injection attack). Observation only; frames always pass.
  using FrameObserver = std::function<void(
      net::Ipv4Address from, net::Ipv4Address to, const util::Bytes& frame)>;
  void set_frame_observer(FrameObserver fn) {
    frame_observer_ = std::move(fn);
  }

  bool all_deliveries_genuine(const MeshHost& host) const {
    for (const auto& p : host.delivered)
      if (!ledger.was_sent(p)) return false;
    return true;
  }

  std::uint64_t plaintext_leaks() const { return plaintext_leaks_; }

  TestWorld world;
  util::SplitMix64 schedule_rng;
  PayloadLedger ledger;
  net::SimNetwork net;
  net::MeshNetwork mesh;

 private:
  MeshHost& attach(std::unique_ptr<MeshHost> host,
                   net::Ipv4Address access_router,
                   const net::TransitLinkConfig& access) {
    host->udp = std::make_unique<net::UdpService>(*host->stack);
    mesh.attach_host(host->stack->address(), access_router, access);
    host->stack->set_default_route(access_router);
    auto [it, inserted] = hosts_.emplace(host->name, std::move(host));
    return *it->second;
  }

  std::map<std::string, std::unique_ptr<MeshHost>> hosts_;
  FrameObserver frame_observer_;
  std::uint64_t plaintext_leaks_ = 0;
};

}  // namespace fbs::testing
