#include "fbs/app_map.hpp"

namespace fbs::core {

Principal app_principal(net::Ipv4Address host, std::uint16_t app_port) {
  Principal p;
  p.address = host.to_bytes();
  p.address.push_back(static_cast<std::uint8_t>(app_port >> 8));
  p.address.push_back(static_cast<std::uint8_t>(app_port));
  p.name = host.to_string() + "#" + std::to_string(app_port);
  return p;
}

AppEndpoint::AppEndpoint(net::UdpService& udp, net::Ipv4Address host,
                         std::uint16_t app_port, KeyManager& keys,
                         const util::Clock& clock, util::RandomSource& rng,
                         const FbsConfig& config)
    : udp_(udp),
      app_port_(app_port),
      endpoint_(app_principal(host, app_port), config, keys, clock, rng) {
  udp_.bind(app_port_, [this](net::Ipv4Address source,
                              std::uint16_t source_port,
                              util::Bytes payload) {
    on_datagram(source, source_port, std::move(payload));
  });
}

bool AppEndpoint::send(net::Ipv4Address host, std::uint16_t app_port,
                       std::uint64_t conversation, util::BytesView data,
                       bool secret) {
  Datagram d;
  d.source = endpoint_.self();
  d.destination = app_principal(host, app_port);
  // The FAM classifies on the conversation: one flow per conversation
  // between this ordered pair of application principals.
  d.attrs.aux = conversation;
  d.attrs.source_port = app_port_;
  d.attrs.destination_port = app_port;
  d.attrs.source_address = endpoint_.self().ipv4().value;
  d.attrs.destination_address = host.value;
  // The conversation id must survive to the receiver for demultiplexing;
  // it rides inside the protected body so it is authenticated (and hidden,
  // when secret) along with the data.
  util::ByteWriter body(8 + data.size());
  body.u64(conversation);
  body.bytes(data);
  d.body = body.take();

  if (!endpoint_.protect_into(ctx_, d, secret, wire_)) return false;
  ++counters_.sent;
  return udp_.send(host, app_port_, app_port, wire_);
}

void AppEndpoint::on_datagram(net::Ipv4Address source,
                              std::uint16_t source_port,
                              util::Bytes payload) {
  const Principal claimed = app_principal(source, source_port);
  const auto outcome = endpoint_.unprotect_into(ctx_, claimed, payload, body_);
  if (std::holds_alternative<ReceiveError>(outcome)) {
    ++counters_.rejected;
    return;
  }
  util::ByteReader r(body_);
  const auto conversation = r.u64();
  if (!conversation) {
    ++counters_.malformed;
    return;
  }
  ++counters_.received;
  if (handler_) handler_(claimed, *conversation, r.rest());
}

}  // namespace fbs::core
