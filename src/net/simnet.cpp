#include "net/simnet.hpp"

#include <algorithm>

namespace fbs::net {

void SimNetwork::attach(Ipv4Address addr, ReceiveFn receive) {
  hosts_[addr] = std::move(receive);
}

void SimNetwork::detach(Ipv4Address addr) { hosts_.erase(addr); }

void SimNetwork::set_link(Ipv4Address a, Ipv4Address b,
                          const LinkParams& params) {
  links_[{std::min(a, b), std::max(a, b)}] = params;
}

const LinkParams& SimNetwork::link_for(Ipv4Address a, Ipv4Address b) const {
  const auto it = links_.find({std::min(a, b), std::max(a, b)});
  return it == links_.end() ? default_link_ : it->second;
}

void SimNetwork::partition(Ipv4Address a, Ipv4Address b, util::TimeUs from,
                           util::TimeUs until) {
  partitions_.push_back(
      {false, std::min(a, b), std::max(a, b), from, until});
}

void SimNetwork::partition_host(Ipv4Address host, util::TimeUs from,
                                util::TimeUs until) {
  partitions_.push_back({true, host, host, from, until});
}

bool SimNetwork::partitioned(Ipv4Address from, Ipv4Address to) {
  const util::TimeUs now = clock_.now();
  const Ipv4Address lo = std::min(from, to);
  const Ipv4Address hi = std::max(from, to);
  bool cut = false;
  std::erase_if(partitions_, [&](const Partition& p) {
    if (now >= p.until) return true;  // window over; prune
    if (now >= p.from &&
        (p.all_links ? (p.a == from || p.a == to)
                     : (p.a == lo && p.b == hi)))
      cut = true;
    return false;
  });
  return cut;
}

bool SimNetwork::burst_drop(Ipv4Address from, Ipv4Address to,
                            const LinkParams& link) {
  bool bad = false;
  if (link.burst_enter > 0) {
    // Evolve the two-state Gilbert chain one step for this frame, then draw
    // against the state's loss probability.
    bool& state = burst_bad_[{std::min(from, to), std::max(from, to)}];
    if (state) {
      if (rng_.next_double() < link.burst_exit) state = false;
    } else {
      if (rng_.next_double() < link.burst_enter) state = true;
    }
    bad = state;
  }
  const double p = bad ? link.burst_loss : link.loss;
  if (!(p > 0) || rng_.next_double() >= p) return false;
  ++(bad ? counters_.burst_lost : counters_.lost);
  return true;
}

void SimNetwork::schedule(Ipv4Address to, util::Bytes frame,
                          util::TimeUs delay) {
  Event ev;
  ev.time = clock_.now() + delay;
  ev.seq = next_seq_++;
  ev.to = to;
  ev.frame = std::move(frame);
  ++counters_.in_flight;
  queue_.push(std::move(ev));
}

void SimNetwork::send(Ipv4Address from, Ipv4Address to, util::Bytes frame) {
  ++counters_.sent;
  capture(from, to, frame, /*outbound=*/true);
  if (tap_) {
    if (tap_(from, to, frame) == TapVerdict::kDrop) {
      ++counters_.tap_dropped;
      return;
    }
  }
  if (partitioned(from, to)) {
    ++counters_.partition_dropped;
    return;
  }
  const LinkParams& link = link_for(from, to);
  if (burst_drop(from, to, link)) return;
  if (link.corrupt > 0 && rng_.next_double() < link.corrupt &&
      !frame.empty()) {
    // One random bit flip; duplicates below carry the same damage, as if
    // the frame was corrupted before the duplicating segment.
    frame[rng_.next_below(frame.size())] ^=
        static_cast<std::uint8_t>(1u << rng_.next_below(8));
    ++counters_.corrupted;
  }

  // Serialization: a finite-rate link sends one frame at a time.
  util::TimeUs tx_done_offset = 0;
  if (link.bandwidth_bps > 0) {
    const auto key = std::make_pair(std::min(from, to), std::max(from, to));
    const util::TimeUs tx_time = static_cast<util::TimeUs>(
        static_cast<double>(frame.size()) * 8.0 / link.bandwidth_bps * 1e6);
    util::TimeUs& busy_until = link_busy_until_[key];
    const util::TimeUs start = std::max(clock_.now(), busy_until);
    busy_until = start + tx_time;
    tx_done_offset = busy_until - clock_.now();
  }

  auto delay_draw = [&] {
    return tx_done_offset + link.delay +
           (link.jitter > 0
                ? static_cast<util::TimeUs>(rng_.next_below(
                      static_cast<std::uint64_t>(link.jitter)))
                : util::TimeUs{0});
  };
  if (link.duplicate > 0 && rng_.next_double() < link.duplicate) {
    ++counters_.duplicated;
    schedule(to, frame, delay_draw());
  }
  schedule(to, std::move(frame), delay_draw());
}

void SimNetwork::inject(Ipv4Address to, util::Bytes frame, util::TimeUs delay) {
  ++counters_.injected;
  schedule(to, std::move(frame), delay);
}

void SimNetwork::call_later(util::TimeUs delay, std::function<void()> fn) {
  Event ev;
  ev.time = clock_.now() + delay;
  ev.seq = next_seq_++;
  ev.callback = std::move(fn);
  queue_.push(std::move(ev));
}

SimNetwork::Event SimNetwork::pop() {
  // top() is const only to protect the heap order, which reads just time
  // and seq: moving the frame and callback out leaves the order intact.
  Event ev = std::move(const_cast<Event&>(queue_.top()));
  queue_.pop();
  return ev;
}

bool SimNetwork::step() {
  if (queue_.empty()) return false;
  Event ev = pop();
  if (ev.time > clock_.now()) clock_.set(ev.time);
  if (ev.callback) {
    ev.callback();
    return true;
  }
  std::vector<util::Bytes> batch = std::move(batch_);
  batch.push_back(std::move(ev.frame));
  while (!queue_.empty()) {
    const Event& next = queue_.top();
    if (next.callback || next.to != ev.to || next.time > clock_.now()) break;
    batch.push_back(pop().frame);
  }
  counters_.in_flight -= batch.size();
  const auto it = hosts_.find(ev.to);
  if (it == hosts_.end()) {
    counters_.no_such_host += batch.size();
  } else {
    counters_.delivered += batch.size();
    it->second(batch);
  }
  batch.clear();
  batch_ = std::move(batch);
  return true;
}

Transport::Totals SimNetwork::totals() const {
  Totals t;
  t.sent = counters_.sent;
  t.duplicated = counters_.duplicated;
  t.injected = counters_.injected;
  t.delivered = counters_.delivered;
  t.dropped = counters_.lost + counters_.burst_lost +
              counters_.partition_dropped + counters_.tap_dropped +
              counters_.no_such_host;
  t.in_flight = counters_.in_flight;
  return t;
}

void SimNetwork::run() {
  while (step()) {
  }
}

void SimNetwork::register_metrics(obs::MetricsRegistry& registry,
                                  const std::string& prefix) const {
  registry.add_source([prefix, this](obs::MetricsRegistry::Emitter& emit) {
    emit.counter(prefix + ".sent", counters_.sent);
    emit.counter(prefix + ".delivered", counters_.delivered);
    emit.counter(prefix + ".lost", counters_.lost);
    emit.counter(prefix + ".burst_lost", counters_.burst_lost);
    emit.counter(prefix + ".corrupted", counters_.corrupted);
    emit.counter(prefix + ".partition_dropped",
                 counters_.partition_dropped);
    emit.counter(prefix + ".duplicated", counters_.duplicated);
    emit.counter(prefix + ".tap_dropped", counters_.tap_dropped);
    emit.counter(prefix + ".no_such_host", counters_.no_such_host);
    emit.counter(prefix + ".injected", counters_.injected);
  });
  register_transport_metrics(registry, prefix);
}

}  // namespace fbs::net
