#include "fbs/ip_map.hpp"

#include "net/headers.hpp"

namespace fbs::core {

namespace {

bool is_transport(std::uint8_t proto) {
  return proto == static_cast<std::uint8_t>(net::IpProto::kTcp) ||
         proto == static_cast<std::uint8_t>(net::IpProto::kUdp);
}

}  // namespace

FbsIpMapping::FbsIpMapping(net::IpStack& stack, const IpMappingConfig& config,
                           KeyManager& keys, const util::Clock& clock,
                           util::RandomSource& rng)
    : config_(config),
      stack_(stack),
      endpoint_(Principal::from_ipv4(stack.address()), config.fbs, keys,
                clock, rng) {
  if (config_.pipeline_workers > 0) {
    PipelineConfig pc;
    pc.workers = config_.pipeline_workers;
    pc.ingress_capacity = config_.pipeline_ingress_capacity;
    pipeline_ = std::make_unique<DatagramPipeline>(
        endpoint_, pc, [this](ReceiveError err) {
          ++counters_.in_rejected[static_cast<std::size_t>(err)];
        });
  }
  net::IpStack::SecurityHooks hooks;
  hooks.output = [this](net::Ipv4Header& h, util::Bytes& p) {
    return on_output(h, p);
  };
  hooks.input = [this](std::span<net::IpStack::InputDatagram> batch) {
    on_input(batch);
  };
  hooks.header_overhead = endpoint_.max_wire_overhead();
  stack.set_security_hooks(std::move(hooks));
}

FlowAttributes FbsIpMapping::attributes_of(const net::Ipv4Header& header,
                                           util::BytesView payload) {
  FlowAttributes attrs;
  attrs.source_address = header.source.value;
  attrs.destination_address = header.destination.value;
  if (is_transport(header.protocol)) {
    attrs.protocol = header.protocol;
    if (const auto ports = net::peek_ports(payload)) {
      attrs.source_port = ports->source;
      attrs.destination_port = ports->destination;
    }
  } else {
    // Raw IP as a host-level flow (footnote 10): all non-transport traffic
    // between the pair shares one flow. aux marks the class so it can never
    // alias a real five-tuple.
    attrs.aux = 0x7261772D6970ull;  // "raw-ip"
  }
  return attrs;
}

bool FbsIpMapping::on_output(net::Ipv4Header& header, util::Bytes& payload) {
  if (!is_transport(header.protocol) && !config_.protect_raw_ip) {
    ++counters_.out_raw_ip;
    return true;
  }
  if (config_.bypass_hosts.contains(header.destination)) {
    ++counters_.out_bypassed;
    return true;
  }

  Datagram d;
  d.source = Principal::from_ipv4(header.source);
  d.destination = Principal::from_ipv4(header.destination);
  d.attrs = attributes_of(header, payload);
  d.body = std::move(payload);

  const bool secret =
      config_.secret_policy ? config_.secret_policy(d.attrs) : true;
  if (!endpoint_.protect_into(tx_ctx_, d, secret, scratch_wire_)) {
    // Fail closed: traffic must not leave unprotected when keying fails.
    ++counters_.out_dropped;
    payload = std::move(d.body);
    return false;
  }
  ++counters_.out_protected;
  std::swap(payload, scratch_wire_);
  // Recycle the plaintext buffer as next packet's wire staging.
  scratch_wire_ = std::move(d.body);
  return true;
}

void FbsIpMapping::on_input(std::span<net::IpStack::InputDatagram> batch) {
  rx_index_.clear();
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const net::Ipv4Header& header = batch[i].header;
    if (!is_transport(header.protocol) && !config_.protect_raw_ip) {
      ++counters_.in_raw_ip;
    } else if (config_.bypass_hosts.contains(header.source)) {
      ++counters_.in_bypassed;
    } else {
      rx_index_.push_back(i);
    }
  }
  const std::size_t n = rx_index_.size();
  if (n == 0) return;
  if (pipeline_) {
    submit_to_pipeline(batch);
    return;
  }
  if (rx_items_.size() < n) {
    rx_sources_.resize(n);
    rx_items_.resize(n);
    rx_bodies_.resize(n);
  }
  for (std::size_t k = 0; k < n; ++k) {
    net::IpStack::InputDatagram& d = batch[rx_index_[k]];
    rx_sources_[k].assign_ipv4(d.header.source);
    rx_items_[k] = ReceiveBurstItem{&rx_sources_[k], d.payload, &rx_bodies_[k]};
  }
  endpoint_.unprotect_burst_into(rx_ctx_, {rx_items_.data(), n});
  for (std::size_t k = 0; k < n; ++k) {
    net::IpStack::InputDatagram& d = batch[rx_index_[k]];
    if (const auto* err = std::get_if<ReceiveError>(&rx_items_[k].outcome)) {
      ++counters_.in_rejected[static_cast<std::size_t>(*err)];
      d.outcome = net::IpStack::InputOutcome::kDrop;
      continue;
    }
    ++counters_.in_accepted;
    std::swap(d.payload, rx_bodies_[k]);
  }
}

void FbsIpMapping::submit_to_pipeline(
    std::span<net::IpStack::InputDatagram> batch) {
  // The FBS datagrams (rx_index_) go to the workers in one call; each
  // comes back taken, to be delivered by drain_pipeline(), or refused by
  // a full ingress ring and dropped.
  const std::size_t n = rx_index_.size();
  if (rx_submissions_.size() < n) rx_submissions_.resize(n);
  for (std::size_t k = 0; k < n; ++k) {
    net::IpStack::InputDatagram& d = batch[rx_index_[k]];
    rx_submissions_[k].header = d.header;
    rx_submissions_[k].wire = std::move(d.payload);
  }
  pipeline_->submit({rx_submissions_.data(), n});
  for (std::size_t k = 0; k < n; ++k) {
    net::IpStack::InputDatagram& d = batch[rx_index_[k]];
    DatagramPipeline::Submission& sub = rx_submissions_[k];
    if (sub.queued) {
      ++counters_.in_deferred;
      d.outcome = net::IpStack::InputOutcome::kTaken;
    } else {
      d.payload = std::move(sub.wire);
      d.outcome = net::IpStack::InputOutcome::kDrop;
    }
  }
}

std::size_t FbsIpMapping::drain_pipeline() {
  if (!pipeline_) return 0;
  return pipeline_->drain([this](const net::Ipv4Header& h, util::Bytes body) {
    ++counters_.in_accepted;
    stack_.deliver(h, std::move(body));
  });
}

void FbsIpMapping::drain_pipeline_all() {
  if (!pipeline_) return;
  pipeline_->drain_all([this](const net::Ipv4Header& h, util::Bytes body) {
    ++counters_.in_accepted;
    stack_.deliver(h, std::move(body));
  });
}

}  // namespace fbs::core
