// Gateway-to-gateway FBS: the "host/gateway to host/gateway security" of
// Section 7.1, i.e. the VPN topology. Two security gateways protect all
// traffic between their networks; inside hosts run no FBS at all.
//
// The flow abstraction still pays off at the gateway: instead of one bulk
// key per gateway pair (host-pair keying at gateway granularity), the
// tunnel classifies the *inner* packet's five-tuple, so every end-to-end
// conversation crossing the tunnel gets its own sfl and key between the
// gateways -- compromise of one conversation's key exposes nothing else.
//
// Encapsulation: outer IP (gw -> gw, proto 253) | FBS header | inner IP
// packet (encrypted). The ingress gateway steals packets from the forward
// path (IpStack::ForwardFilter); the egress gateway unprotects and forwards
// the inner packet toward its destination.
#pragma once

#include <vector>

#include "fbs/engine.hpp"
#include "net/stack.hpp"

namespace fbs::core {

class FbsTunnel {
 public:
  /// `stack` must have forwarding enabled; `keys` resolves *gateway*
  /// principals (IPv4 addresses of the gateways).
  FbsTunnel(net::IpStack& stack, KeyManager& keys, const util::Clock& clock,
            util::RandomSource& rng, const FbsConfig& config = {});

  /// Traffic forwarded toward network/prefix_len is tunneled to
  /// `remote_gateway` instead of plainly forwarded.
  void add_remote_network(net::Ipv4Address network, int prefix_len,
                          net::Ipv4Address remote_gateway);

  struct Counters {
    std::uint64_t encapsulated = 0;
    std::uint64_t decapsulated = 0;
    std::uint64_t key_unavailable = 0;
    std::uint64_t rejected = 0;
    std::uint64_t inner_malformed = 0;
  };
  const Counters& counters() const { return counters_; }
  FbsEndpoint& endpoint() { return endpoint_; }

  /// Publish the endpoint's metrics plus the tunnel counters as pull
  /// sources under `<prefix>.` names.
  void register_metrics(obs::MetricsRegistry& registry,
                        const std::string& prefix) const;

 private:
  bool on_forward(const net::Ipv4Header& inner, const util::Bytes& payload);
  void on_tunnel_packet(const net::Ipv4Header& outer, util::Bytes payload);
  const net::Ipv4Address* remote_gateway_for(net::Ipv4Address dst) const;

  struct RemoteNet {
    std::uint32_t network;
    int prefix_len;
    net::Ipv4Address gateway;
  };

  net::IpStack& stack_;
  FbsEndpoint endpoint_;
  std::vector<RemoteNet> remotes_;
  Counters counters_;

  /// Engine scratch and encapsulation staging reused across packets (a
  /// gateway forwards a stream of them); warm steady state adds no
  /// per-packet allocations.
  WorkContext ctx_;
  util::Bytes scratch_wire_;
  util::Bytes scratch_inner_;
};

}  // namespace fbs::core
