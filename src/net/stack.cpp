#include "net/stack.hpp"

#include <cassert>

namespace fbs::net {

IpStack::IpStack(Transport& network, const util::Clock& clock,
                 Ipv4Address address, std::size_t mtu)
    : network_(network),
      address_(address),
      mtu_(mtu),
      reassembler_(clock) {
  for (std::size_t i = 0; i < kSealQueue; ++i) queue_[i].slot = i;
  network_.attach(address_, [this](std::span<const util::Bytes> frames) {
    on_frames(frames);
  });
}

IpStack::~IpStack() {
  drain(Drain::kFlush);
  if (holding_) network_.release(*this);
  network_.detach(address_);
}

void IpStack::set_security_hooks(SecurityHooks hooks) {
  drain(Drain::kFlush);
  hooks_ = std::move(hooks);
}

std::size_t IpStack::effective_payload_size() const {
  return mtu_ - Ipv4Header::kSize - hooks_.header_overhead;
}

void IpStack::register_protocol(IpProto proto, ProtocolHandler handler) {
  handlers_[static_cast<std::uint8_t>(proto)] = std::move(handler);
}

bool IpStack::output(Ipv4Address destination, IpProto proto,
                     util::BytesView payload, bool dont_fragment) {
  // Part [1]: header construction and (trivial, fully-connected) routing,
  // into the next free slot of the seal queue.
  assert(!draining_ && "a seal hook or the transport sent on its own stack");
  OutputDatagram& d = queue_[held_];
  d.header = Ipv4Header{};
  d.header.id = next_id_++;
  d.header.protocol = static_cast<std::uint8_t>(proto);
  d.header.source = address_;
  d.header.destination = destination;
  d.header.dont_fragment = dont_fragment;
  d.payload.assign(payload.begin(), payload.end());
  d.seal = false;

  // The FBS admit hook sits between route selection and fragmentation.
  if (hooks_.admit && !hooks_.admit(d)) {
    ++counters_.hook_drops_out;
    return false;
  }
  if (!d.seal) d.wire_size = d.payload.size();
  if (!fits_mtu(d.header, d.wire_size, mtu_)) {
    ++counters_.df_drops;
    return false;
  }
  ++counters_.packets_out;
  if (!d.seal && held_ == 0) {
    send_datagram(d);
    return true;
  }
  if (++held_ == kSealQueue) {
    drain(Drain::kFull);
  } else if (!holding_) {
    holding_ = true;
    network_.hold(*this);
  }
  return true;
}

void IpStack::flush() { drain(Drain::kFlush); }

void IpStack::drain(Drain why) {
  if (why == Drain::kPump) holding_ = false;
  // A transport whose send() sets a timer (a link serializer) flushes
  // holders from inside a drain; the drain under way sends all.
  if (held_ == 0 || draining_) return;
  switch (why) {
    case Drain::kFull: ++counters_.drains_full; break;
    case Drain::kPump: ++counters_.drains_pump; break;
    case Drain::kReceive: ++counters_.drains_receive; break;
    case Drain::kFlush: ++counters_.drains_flush; break;
  }
  draining_ = true;
  const std::span<OutputDatagram> burst(queue_.data(), held_);
  if (hooks_.seal) hooks_.seal(burst);
  for (const OutputDatagram& d : burst) send_datagram(d);
  held_ = 0;
  draining_ = false;
}

void IpStack::send_datagram(const OutputDatagram& d) {
  // Part [2]: fragmentation.
  auto packets = fragment(d.header, d.payload, mtu_);
  // Part [3]: transmit on the chosen interface (toward the next hop).
  counters_.fragments_out += packets.size();
  const Ipv4Address hop = next_hop_for(d.header.destination);
  for (auto& p : packets) network_.send(address_, hop, std::move(p));
}

void IpStack::add_route(Ipv4Address network, int prefix_len,
                        Ipv4Address next_hop) {
  routes_.push_back(Route{network.value, prefix_len, next_hop});
}

Ipv4Address IpStack::next_hop_for(Ipv4Address destination) const {
  const Route* best = nullptr;
  for (const Route& r : routes_) {
    const std::uint32_t mask =
        r.prefix_len == 0 ? 0 : ~0u << (32 - r.prefix_len);
    if ((destination.value & mask) == (r.network & mask)) {
      if (!best || r.prefix_len > best->prefix_len) best = &r;
    }
  }
  return best ? best->next_hop : destination;
}

bool IpStack::forward_packet(Ipv4Header header, util::BytesView payload) {
  // What this stack sent before the frame it forwards goes out first.
  drain(Drain::kReceive);
  if (header.ttl <= 1) {
    ++counters_.ttl_expired;
    return false;
  }
  header.ttl -= 1;
  auto packets = fragment(header, payload, mtu_);
  if (packets.empty()) {
    ++counters_.df_drops;
    return false;
  }
  ++counters_.forwarded;
  const Ipv4Address hop = next_hop_for(header.destination);
  for (auto& p : packets) network_.send(address_, hop, std::move(p));
  return true;
}

void IpStack::on_frames(std::span<const util::Bytes> frames) {
  drain(Drain::kReceive);
  for (const util::Bytes& frame : frames) on_frame(frame);
  flush_input();
  // What the handlers sent in reply leaves with the batch.
  drain(Drain::kReceive);
}

void IpStack::on_frame(util::BytesView frame) {
  ++counters_.packets_in;

  // Part [1]: validation.
  auto parsed = Ipv4Header::parse(frame);
  if (!parsed) {
    ++counters_.parse_errors;
    return;
  }
  if (parsed->header.destination != address_) {
    if (!forwarding_) {
      ++counters_.not_for_us;
      return;
    }
    // What this frame makes the router emit goes out after what the
    // datagrams before it make the local handlers emit.
    flush_input();
    // Router path: optionally intercepted (tunnel ingress), else forwarded
    // as-is. Fragments are forwarded fragment-by-fragment unless a filter
    // needs the whole datagram -- our tunnel reassembles first for
    // simplicity, matching local-delivery semantics.
    if (forward_filter_) {
      counters_.reassembly_expired += reassembler_.expire();
      auto whole = reassembler_.push(parsed->header, std::move(parsed->payload));
      if (!whole) return;
      if (forward_filter_(whole->header, whole->payload)) return;  // consumed
      (void)forward_packet(whole->header, whole->payload);
      return;
    }
    (void)forward_packet(parsed->header, parsed->payload);
    return;
  }

  // Part [2]: reassembly (local delivery only, as in 4.4BSD).
  counters_.reassembly_expired += reassembler_.expire();
  auto complete = reassembler_.push(parsed->header, std::move(parsed->payload));
  if (!complete) return;

  // The FBS input hook sits between reassembly and dispatch.
  input_batch_.push_back(InputDatagram{std::move(complete->header),
                                       std::move(complete->payload)});
  if (input_batch_.size() == kMaxInputBatch) flush_input();
}

void IpStack::flush_input() {
  if (input_batch_.empty()) return;
  // Take the batch: a handler that makes this stack receive again (a
  // transport pumped from inside a handler) starts a batch of its own.
  std::vector<InputDatagram> batch = std::move(input_batch_);
  if (hooks_.input) hooks_.input(batch);
  for (InputDatagram& d : batch) {
    switch (d.outcome) {
      case InputOutcome::kDeliver:
        deliver(d.header, std::move(d.payload));
        break;
      case InputOutcome::kDrop:
        ++counters_.hook_drops_in;
        break;
      case InputOutcome::kTaken:
        ++counters_.deferred_in;
        break;
    }
  }
  batch.clear();
  if (input_batch_.empty()) input_batch_ = std::move(batch);
}

void IpStack::deliver(const Ipv4Header& header, util::Bytes payload) {
  // Part [3]: dispatch to the higher-layer protocol.
  const auto it = handlers_.find(header.protocol);
  if (it == handlers_.end()) {
    ++counters_.no_protocol;
    return;
  }
  ++counters_.delivered;
  it->second(header, std::move(payload));
}

}  // namespace fbs::net
