#include "fbs/megaflow.hpp"

namespace fbs::core {

MegaflowPolicy::MegaflowPolicy(std::size_t max_flows, util::TimeUs threshold,
                               SflAllocator& sfl_alloc, unsigned tick_shift)
    : max_flows_(max_flows ? max_flows : 1),
      threshold_(threshold),
      sfl_alloc_(sfl_alloc),
      wheel_(tick_shift) {
  // Reserve the whole budget up front: steady state must not grow the heap
  // (the bench asserts rehashes() and slab_grows stay zero).
  slab_.reserve(max_flows_);
  free_.reserve(max_flows_);
  map_.reserve(max_flows_);
  wheel_.reserve(static_cast<std::uint32_t>(max_flows_));
  slab_reserved_ = slab_.capacity();
}

std::string MegaflowPolicy::name() const {
  return "megaflow(budget=" + std::to_string(max_flows_) +
         ",threshold=" + std::to_string(threshold_ / util::kMicrosPerSecond) +
         "s)";
}

std::uint32_t MegaflowPolicy::alloc_slot() {
  if (!free_.empty()) {
    const std::uint32_t idx = free_.back();
    free_.pop_back();
    return idx;
  }
  slab_.emplace_back();
  return static_cast<std::uint32_t>(slab_.size() - 1);
}

void MegaflowPolicy::retire(std::uint32_t idx) {
  FlowStateEntry& e = slab_[idx];
  map_.erase(e.attrs);
  e.valid = false;
  free_.push_back(idx);
  --live_;
}

FlowStateEntry& MegaflowPolicy::start_flow(FlowStateEntry& e,
                                           const FlowAttributes& attrs,
                                           util::TimeUs now,
                                           std::uint64_t bytes) {
  e.valid = true;
  e.sfl = sfl_alloc_.allocate();
  e.attrs = attrs;
  e.created = now;
  e.last = now;
  e.datagrams = 1;
  e.bytes = bytes;
  ++stats_.flows_created;
  return e;
}

MapResult MegaflowPolicy::map(const Datagram& d, util::TimeUs now) {
  ++stats_.datagrams;
  if (std::uint32_t* idx = map_.find(d.attrs)) {
    FlowStateEntry& e = slab_[*idx];
    if (flow_expired(e.last, now, threshold_)) {
      // Same conversation boundary the sweeper would have drawn; the slab
      // slot and map entry are reused in place for the successor flow. The
      // wheel timer stays at its stale deadline and lazily re-arms on fire.
      ++stats_.mapper_expirations;
      start_flow(e, d.attrs, now, d.body.size());
      return {e.sfl, true};
    }
    e.last = now;
    ++e.datagrams;
    e.bytes += d.body.size();
    ++stats_.mapper_hits;
    // Deliberately no wheel op here: a mapper hit is the per-datagram hot
    // path and must stay O(1). The timer fires at the old deadline, sees
    // the flow was active since, and re-arms (sweep()'s lazy re-arm).
    return {e.sfl, false};
  }

  if (live_ >= max_flows_) {
    // Budget full: reclaim the longest-idle flow. pop_earliest() orders by
    // *armed* deadline, which lazy re-arm lets lag behind true activity, so
    // probe a few candidates: a genuinely stale one is retired on the spot
    // (ordinary expiry, just pulled forward); active ones get their true
    // deadline re-armed -- fixing the wheel's ordering as a side effect --
    // and the oldest-seen is evicted if no stale flow turns up.
    std::uint32_t best = util::TimerWheel::kNil;
    bool reclaimed = false;
    for (int tries = 0; tries < 8; ++tries) {
      const std::uint32_t victim = wheel_.pop_earliest();
      if (victim == util::TimerWheel::kNil) break;
      FlowStateEntry& v = slab_[victim];
      if (flow_expired(v.last, now, threshold_)) {
        retire(victim);
        ++stats_.sweeper_expirations;
        reclaimed = true;
        break;
      }
      wheel_.schedule(victim, v.last + threshold_ + 1);
      if (best == util::TimerWheel::kNil || v.last < slab_[best].last)
        best = victim;
    }
    if (!reclaimed) {
      if (best == util::TimerWheel::kNil) return {sfl_alloc_.allocate(), true};
      wheel_.cancel(best);
      retire(best);
      ++mega_.budget_evictions;
    }
  }

  const std::uint32_t idx = alloc_slot();
  FlowStateEntry& e = start_flow(slab_[idx], d.attrs, now, d.body.size());
  map_.try_emplace(d.attrs, idx);
  wheel_.schedule(idx, now + threshold_ + 1);
  ++live_;
  if (live_ > mega_.peak_live_flows) mega_.peak_live_flows = live_;
  return {e.sfl, true};
}

std::size_t MegaflowPolicy::sweep(util::TimeUs now) {
  const util::TimerWheel::Stats before = wheel_.stats();
  std::size_t expired = 0;
  wheel_.advance(now, [&](std::uint32_t idx) {
    FlowStateEntry& e = slab_[idx];
    if (flow_expired(e.last, now, threshold_)) {
      retire(idx);
      ++expired;
    } else {
      // Flow was active since this timer was armed: lazy re-arm at the
      // true deadline.
      wheel_.schedule(idx, e.last + threshold_ + 1);
    }
  });
  const util::TimerWheel::Stats& after = wheel_.stats();
  mega_.sweep_touched += (after.fired - before.fired) +
                         (after.slot_visits - before.slot_visits);
  stats_.sweeper_expirations += expired;
  return expired;
}

void MegaflowPolicy::expire_flow(const FlowAttributes& attrs) {
  // Keyed point erase: O(1) map + wheel work, and -- unlike a policy whose
  // expiry walks the table -- no sweeper counter moves, so rekeying a flow
  // never perturbs the Figure 7 sweep statistics.
  if (std::uint32_t* idx = map_.find(attrs)) {
    const std::uint32_t i = *idx;
    wheel_.cancel(i);
    retire(i);
  }
}

const FlowStateEntry* MegaflowPolicy::find(const FlowAttributes& attrs) const {
  const std::uint32_t* idx = map_.find(attrs);
  return idx ? &slab_[*idx] : nullptr;
}

std::size_t MegaflowPolicy::active_flows(util::TimeUs now) const {
  // Metrics-path gauge: the one read-only walk, matching the semantics of
  // the fixed-table policies (live AND not yet past threshold). Datagram
  // and expiry paths never do this.
  std::size_t n = 0;
  map_.for_each([&](const FlowAttributes&, const std::uint32_t& idx) {
    if (!flow_expired(slab_[idx].last, now, threshold_)) ++n;
  });
  return n;
}

void MegaflowPolicy::clear() {
  map_.clear();
  wheel_.clear();
  slab_.clear();  // capacity retained: restart re-fills without allocating
  free_.clear();
  live_ = 0;
}

const MegaflowStats* MegaflowPolicy::mega_stats() const {
  const util::TimerWheel::Stats& w = wheel_.stats();
  mega_.wheel_cascades = w.cascaded;
  mega_.wheel_fires = w.fired;
  mega_.map_rehashes = map_.rehashes();
  mega_.slab_grows = slab_.capacity() > slab_reserved_ ? 1 : 0;
  mega_.live_flows = live_;
  mega_.map_load_factor = map_.load_factor();
  mega_.resident_bytes = map_.memory_bytes() +
                         slab_.capacity() * sizeof(FlowStateEntry) +
                         free_.capacity() * sizeof(std::uint32_t) +
                         wheel_.memory_bytes();
  return &mega_;
}

}  // namespace fbs::core
