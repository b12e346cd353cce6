#include "fbs/tunnel.hpp"

#include "net/headers.hpp"

namespace fbs::core {

FbsTunnel::FbsTunnel(net::IpStack& stack, KeyManager& keys,
                     const util::Clock& clock, util::RandomSource& rng,
                     const FbsConfig& config)
    : stack_(stack),
      endpoint_(Principal::from_ipv4(stack.address()), config, keys, clock,
                rng) {
  stack_.set_forward_filter(
      [this](const net::Ipv4Header& inner, const util::Bytes& payload) {
        return on_forward(inner, payload);
      });
  stack_.register_protocol(
      net::IpProto::kFbsTunnel,
      [this](const net::Ipv4Header& outer, util::Bytes payload) {
        on_tunnel_packet(outer, std::move(payload));
      });
}

void FbsTunnel::add_remote_network(net::Ipv4Address network, int prefix_len,
                                   net::Ipv4Address remote_gateway) {
  remotes_.push_back(RemoteNet{network.value, prefix_len, remote_gateway});
}

const net::Ipv4Address* FbsTunnel::remote_gateway_for(
    net::Ipv4Address dst) const {
  const RemoteNet* best = nullptr;
  for (const RemoteNet& r : remotes_) {
    const std::uint32_t mask =
        r.prefix_len == 0 ? 0 : ~0u << (32 - r.prefix_len);
    if ((dst.value & mask) == (r.network & mask)) {
      if (!best || r.prefix_len > best->prefix_len) best = &r;
    }
  }
  return best ? &best->gateway : nullptr;
}

bool FbsTunnel::on_forward(const net::Ipv4Header& inner,
                           const util::Bytes& payload) {
  const net::Ipv4Address* remote = remote_gateway_for(inner.destination);
  if (!remote) return false;  // not ours: forward plainly

  // Classify on the INNER conversation so each end-to-end five-tuple gets
  // its own flow between the gateways.
  Datagram d;
  d.source = Principal::from_ipv4(stack_.address());
  d.destination = Principal::from_ipv4(*remote);
  d.attrs.protocol = inner.protocol;
  d.attrs.source_address = inner.source.value;
  d.attrs.destination_address = inner.destination.value;
  if (const auto ports = net::peek_ports(payload)) {
    d.attrs.source_port = ports->source;
    d.attrs.destination_port = ports->destination;
  }
  d.body = inner.serialize(payload);  // the whole inner packet

  if (!endpoint_.protect_into(ctx_, d, /*secret=*/true, scratch_wire_)) {
    ++counters_.key_unavailable;
    return true;  // consumed: fail closed, never leak across the wild side
  }
  ++counters_.encapsulated;
  stack_.output(*remote, net::IpProto::kFbsTunnel, scratch_wire_);
  return true;
}

void FbsTunnel::on_tunnel_packet(const net::Ipv4Header& outer,
                                 util::Bytes payload) {
  const auto outcome = endpoint_.unprotect_into(
      ctx_, Principal::from_ipv4(outer.source), payload, scratch_inner_);
  if (std::holds_alternative<ReceiveError>(outcome)) {
    ++counters_.rejected;
    return;
  }
  auto inner = net::Ipv4Header::parse(scratch_inner_);
  if (!inner) {
    ++counters_.inner_malformed;
    return;
  }
  ++counters_.decapsulated;
  // Hand the inner packet onward: to a local host on our network, or (if
  // we are a hop in a longer chain) toward the next gateway.
  stack_.forward_packet(inner->header, inner->payload);
}

}  // namespace fbs::core
