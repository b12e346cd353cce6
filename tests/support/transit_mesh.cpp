#include "support/transit_mesh.hpp"

#include <algorithm>
#include <deque>
#include <set>

namespace fbs::net {

// --- TransitRouter ---------------------------------------------------------

TransitRouter::TransitRouter(Transport& net, const util::Clock& clock,
                             Ipv4Address addr, util::RandomSource& rng,
                             std::size_t mtu)
    : net_(net), clock_(clock), stack_(egress_, clock, addr, mtu), rng_(rng) {
  stack_.enable_forwarding(true);
}

void TransitRouter::add_link(Ipv4Address neighbor,
                             const TransitLinkConfig& config) {
  links_.emplace(neighbor,
                 std::make_unique<Link>(neighbor, config, rng_));
}

void TransitRouter::transmit(Ipv4Address next_hop, util::Bytes frame) {
  if (down_) {
    ++stats_.down_dropped;
    return;
  }
  const auto it = links_.find(next_hop);
  if (it == links_.end()) {
    // No adjacency toward the next hop. This is what turns the
    // fully-connected SimNetwork into a topology: without a route the
    // stack's next_hop_for falls back to the destination itself, and
    // unless that destination is a direct neighbor the frame dies here.
    ++stats_.no_route_dropped;
    return;
  }
  Link& link = *it->second;
  if (link.queue.push(std::move(frame), clock_.now()) ==
      LinkQueue::Enqueue::kAccepted) {
    update_congestion(link);
    start_tx(link);
  }
}

void TransitRouter::start_tx(Link& link) {
  if (down_ || link.busy || link.paused) return;
  auto item = link.queue.pop();
  if (!item) return;
  link.queue_delay.record_ns(
      static_cast<double>(clock_.now() - item->enqueued_at) * 1000.0);
  link.busy = true;
  const util::TimeUs tx_time =
      link.cfg.bandwidth_bps > 0
          ? static_cast<util::TimeUs>(static_cast<double>(item->frame.size()) *
                                      8.0 * 1e6 / link.cfg.bandwidth_bps)
          : util::TimeUs{0};
  Link* lp = &link;  // stable: links_ values are unique_ptr-owned
  net_.call_later(tx_time, [this, lp, frame = std::move(item->frame)]() {
    lp->busy = false;
    if (down_) {
      // The frame was on the serializer when the router died with it.
      ++lp->crash_tx_dropped;
    } else {
      ++lp->sent;
      net_.send(address(), lp->neighbor, frame);
    }
    update_congestion(*lp);
    start_tx(*lp);
  });
}

void TransitRouter::update_congestion(Link& link) {
  if (link.cfg.queue.discipline != QueueDiscipline::kBackpressure) return;
  if (!link.xoff_raised && link.queue.above_high()) {
    link.xoff_raised = true;
    if (congested_links_++ == 0 && congestion_) congestion_(address(), true);
  } else if (link.xoff_raised && link.queue.below_low()) {
    link.xoff_raised = false;
    if (--congested_links_ == 0 && congestion_) congestion_(address(), false);
  }
}

void TransitRouter::pause_link(Ipv4Address neighbor) {
  const auto it = links_.find(neighbor);
  if (it == links_.end()) return;
  Link& link = *it->second;
  if (link.paused) return;
  link.paused = true;
  ++link.pauses;
  const std::uint64_t epoch = ++link.pause_epoch;
  Link* lp = &link;
  // PFC-style watchdog: a pause that is never lifted (downstream crashed
  // before its xon, or a signaling cycle formed) self-expires, trading a
  // possible burst of drops for guaranteed liveness.
  net_.call_later(link.cfg.pause_timeout, [this, lp, epoch]() {
    if (lp->paused && lp->pause_epoch == epoch) {
      lp->paused = false;
      start_tx(*lp);
    }
  });
}

void TransitRouter::resume_link(Ipv4Address neighbor) {
  const auto it = links_.find(neighbor);
  if (it == links_.end()) return;
  Link& link = *it->second;
  if (!link.paused) return;
  link.paused = false;
  ++link.pause_epoch;  // invalidate the watchdog
  start_tx(link);
}

void TransitRouter::crash() {
  if (down_) return;
  down_ = true;
  ++stats_.crashes;
  for (auto& [addr, link] : links_) {
    link->queue.wipe();
    // Upstream pauses we caused must not outlive us longer than the
    // watchdog; clearing our own xoff state keeps the signal symmetric.
    if (link->xoff_raised) {
      link->xoff_raised = false;
      if (--congested_links_ == 0 && congestion_) congestion_(address(), false);
    }
    link->paused = false;
    ++link->pause_epoch;
  }
}

void TransitRouter::restart() {
  if (!down_) return;
  down_ = false;
  for (auto& [addr, link] : links_) start_tx(*link);
}

std::vector<Ipv4Address> TransitRouter::neighbors() const {
  std::vector<Ipv4Address> out;
  out.reserve(links_.size());
  for (const auto& [addr, link] : links_) out.push_back(addr);
  return out;
}

const TransitRouter::LinkStats* TransitRouter::link_stats(
    Ipv4Address neighbor) const {
  const auto it = links_.find(neighbor);
  if (it == links_.end()) return nullptr;
  static thread_local LinkStats snap;
  const Link& link = *it->second;
  snap.queue = link.queue.stats();
  snap.sent = link.sent;
  snap.crash_tx_dropped = link.crash_tx_dropped;
  snap.pauses = link.pauses;
  snap.depth = link.queue.depth();
  snap.paused = link.paused;
  return &snap;
}

const LinkQueue* TransitRouter::link_queue(Ipv4Address neighbor) const {
  const auto it = links_.find(neighbor);
  return it == links_.end() ? nullptr : &it->second->queue;
}

void TransitRouter::register_metrics(obs::MetricsRegistry& registry,
                                     const std::string& prefix) const {
  registry.add_source([this, prefix](obs::MetricsRegistry::Emitter& out) {
    out.counter(prefix + ".no_route_dropped", stats_.no_route_dropped);
    out.counter(prefix + ".down_dropped", stats_.down_dropped);
    out.counter(prefix + ".crashes", stats_.crashes);
    out.gauge(prefix + ".down", down_ ? 1.0 : 0.0);
    for (const auto& [addr, link] : links_) {
      const std::string lp = prefix + ".link." + addr.to_string();
      const LinkQueue::Stats& q = link->queue.stats();
      out.counter(lp + ".enqueued", q.enqueued);
      out.counter(lp + ".dequeued", q.dequeued);
      out.counter(lp + ".tail_dropped", q.tail_dropped);
      out.counter(lp + ".red_dropped", q.red_dropped);
      out.counter(lp + ".wiped", q.wiped);
      out.counter(lp + ".sent", link->sent);
      out.counter(lp + ".crash_tx_dropped", link->crash_tx_dropped);
      out.counter(lp + ".pauses", link->pauses);
      out.gauge(lp + ".depth", static_cast<double>(link->queue.depth()));
      out.gauge(lp + ".highwater", static_cast<double>(q.highwater));
      out.gauge(lp + ".paused", link->paused ? 1.0 : 0.0);
      out.latency(lp + ".queue_delay", link->queue_delay.summary());
    }
  });
}

// --- MeshNetwork -----------------------------------------------------------

TransitRouter& MeshNetwork::add_router(Ipv4Address addr) {
  auto router =
      std::make_unique<TransitRouter>(net_, clock_, addr, rng_);
  router->set_congestion_signal([this](Ipv4Address reporter, bool on) {
    // Hop-local xoff: every up neighbor stops (resumes) draining toward the
    // congested router. The congested router's own egress keeps going --
    // backpressure slows the inflow, it never freezes the drain.
    for (const Edge& e : edges_) {
      if (e.down) continue;
      const Ipv4Address peer =
          e.a == reporter ? e.b : (e.b == reporter ? e.a : Ipv4Address{});
      if (peer.value == 0) continue;
      auto it = routers_.find(peer);
      if (it == routers_.end() || it->second->down()) continue;
      if (on) {
        it->second->pause_link(reporter);
      } else {
        it->second->resume_link(reporter);
      }
    }
  });
  TransitRouter& ref = *router;
  routers_.emplace(addr, std::move(router));
  order_.push_back(addr);
  return ref;
}

void MeshNetwork::connect(Ipv4Address a, Ipv4Address b,
                          const TransitLinkConfig& config) {
  routers_.at(a)->add_link(b, config);
  routers_.at(b)->add_link(a, config);
  if (sim_) sim_->set_link(a, b, config.wire);
  edges_.push_back(Edge{a, b, false});
}

void MeshNetwork::attach_host(Ipv4Address host, Ipv4Address router,
                              const TransitLinkConfig& config) {
  routers_.at(router)->add_link(host, config);
  if (sim_) sim_->set_link(host, router, config.wire);
  hosts_[host] = router;
}

void MeshNetwork::recompute_routes() {
  // BFS shortest paths from every router over the live graph. Neighbor
  // expansion follows edges_ in insertion order with std::map-ordered
  // adjacency below; fully deterministic, so equal-cost ties always break
  // the same way (lowest-address first hop for the diamond's two paths).
  std::map<Ipv4Address, std::vector<Ipv4Address>> adj;
  for (const Edge& e : edges_) {
    if (e.down) continue;
    if (routers_.at(e.a)->down() || routers_.at(e.b)->down()) continue;
    adj[e.a].push_back(e.b);
    adj[e.b].push_back(e.a);
  }
  for (auto& [addr, ns] : adj) std::sort(ns.begin(), ns.end());

  for (auto& [src, router] : routers_) {
    router->stack().clear_routes();
    if (router->down()) continue;

    // first_hop[d] = neighbor of src on a shortest path to d.
    std::map<Ipv4Address, Ipv4Address> first_hop;
    std::deque<Ipv4Address> frontier{src};
    std::set<Ipv4Address> visited{src};
    while (!frontier.empty()) {
      const Ipv4Address at = frontier.front();
      frontier.pop_front();
      const auto ns = adj.find(at);
      if (ns == adj.end()) continue;
      for (Ipv4Address next : ns->second) {
        if (!visited.insert(next).second) continue;
        first_hop[next] = at == src ? next : first_hop[at];
        frontier.push_back(next);
      }
    }

    for (const auto& [dst, hop] : first_hop) {
      router->stack().add_route(dst, 32, hop);
    }
    for (const auto& [host, access] : hosts_) {
      if (access == src) continue;  // direct link; no route needed
      const auto hop = first_hop.find(access);
      if (hop == first_hop.end()) continue;  // unreachable: drop at transmit
      router->stack().add_route(host, 32, hop->second);
    }
  }
}

void MeshNetwork::schedule(util::TimeUs at, std::function<void()> fn) {
  const util::TimeUs now = clock_.now();
  net_.call_later(at > now ? at - now : util::TimeUs{0}, std::move(fn));
}

void MeshNetwork::set_edge_state(Ipv4Address a, Ipv4Address b, bool down) {
  for (Edge& e : edges_) {
    if ((e.a == a && e.b == b) || (e.a == b && e.b == a)) e.down = down;
  }
}

void MeshNetwork::flap_link(Ipv4Address a, Ipv4Address b, util::TimeUs from,
                            util::TimeUs until) {
  if (sim_) sim_->partition(a, b, from, until);
  schedule(from, [this, a, b]() {
    set_edge_state(a, b, true);
    recompute_routes();
  });
  schedule(until, [this, a, b]() {
    set_edge_state(a, b, false);
    recompute_routes();
  });
}

void MeshNetwork::crash_router(Ipv4Address router, util::TimeUs at,
                               util::TimeUs until) {
  if (sim_) sim_->partition_host(router, at, until);
  schedule(at, [this, router]() {
    routers_.at(router)->crash();
    recompute_routes();
  });
  schedule(until, [this, router]() {
    routers_.at(router)->restart();
    recompute_routes();
  });
}

MeshNetwork::Totals MeshNetwork::totals() const {
  Totals t;
  for (const auto& [addr, router] : routers_) {
    t.no_route_dropped += router->stats().no_route_dropped;
    t.down_dropped += router->stats().down_dropped;
    for (Ipv4Address n : router->neighbors()) {
      const LinkQueue* q = router->link_queue(n);
      const TransitRouter::LinkStats* ls = router->link_stats(n);
      t.enqueued += q->stats().enqueued;
      t.dequeued += q->stats().dequeued;
      t.tail_dropped += q->stats().tail_dropped;
      t.red_dropped += q->stats().red_dropped;
      t.wiped += q->stats().wiped;
      t.sent += ls->sent;
      t.crash_tx_dropped += ls->crash_tx_dropped;
      t.depth += q->depth();
    }
  }
  return t;
}

void MeshNetwork::register_metrics(obs::MetricsRegistry& registry,
                                   const std::string& prefix) const {
  for (std::size_t i = 0; i < order_.size(); ++i) {
    routers_.at(order_[i])->register_metrics(
        registry, prefix + ".r" + std::to_string(i));
  }
}

// --- Topology builders -----------------------------------------------------

Ipv4Address mesh_router_address(std::size_t index) {
  // 10.200.0.0/24, host part 1..254.
  return Ipv4Address{(10u << 24) | (200u << 16) |
                     static_cast<std::uint32_t>(index + 1)};
}

std::vector<Ipv4Address> build_line(MeshNetwork& mesh, std::size_t n,
                                    const TransitLinkConfig& config) {
  std::vector<Ipv4Address> routers;
  for (std::size_t i = 0; i < n; ++i) {
    routers.push_back(mesh_router_address(i));
    mesh.add_router(routers.back());
  }
  for (std::size_t i = 0; i + 1 < n; ++i) {
    mesh.connect(routers[i], routers[i + 1], config);
  }
  return routers;
}

std::vector<Ipv4Address> build_diamond(MeshNetwork& mesh,
                                       const TransitLinkConfig& config) {
  std::vector<Ipv4Address> r;
  for (std::size_t i = 0; i < 4; ++i) {
    r.push_back(mesh_router_address(i));
    mesh.add_router(r.back());
  }
  mesh.connect(r[0], r[1], config);  // upper path
  mesh.connect(r[0], r[2], config);  // lower path
  mesh.connect(r[1], r[3], config);
  mesh.connect(r[2], r[3], config);
  return r;
}

std::vector<Ipv4Address> build_random_mesh(MeshNetwork& mesh, std::size_t n,
                                           std::size_t extra_edges,
                                           std::uint64_t seed,
                                           const TransitLinkConfig& config) {
  std::vector<Ipv4Address> routers;
  for (std::size_t i = 0; i < n; ++i) {
    routers.push_back(mesh_router_address(i));
    mesh.add_router(routers.back());
  }
  std::set<std::pair<std::size_t, std::size_t>> used;
  // Ring first: connectivity is guaranteed whatever the chords do.
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t j = (i + 1) % n;
    mesh.connect(routers[i], routers[j], config);
    used.insert({std::min(i, j), std::max(i, j)});
  }
  util::SplitMix64 rng(seed);
  std::size_t added = 0;
  std::size_t attempts = 0;
  while (added < extra_edges && attempts < extra_edges * 50 + 100) {
    ++attempts;
    const std::size_t i = rng.next_below(n);
    const std::size_t j = rng.next_below(n);
    if (i == j) continue;
    if (!used.insert({std::min(i, j), std::max(i, j)}).second) continue;
    mesh.connect(routers[i], routers[j], config);
    ++added;
  }
  return routers;
}

}  // namespace fbs::net
