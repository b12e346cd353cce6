// Million-flow FAM policy: budgeted flat-hash flow table with timer-wheel
// expiry (ROADMAP item 2, DESIGN.md 5i).
//
// The paper's FiveTuplePolicy is a direct-mapped table sized for a campus
// LAN: collisions prematurely terminate flows (footnote 11), and the
// sweeper walks every slot. Both choices fall over at internet scale -- at
// a million concurrent flows a direct-mapped table of any affordable size
// is mostly collisions, and an O(table) sweep costs a table walk per
// sweeper period no matter how few flows actually expired. This policy
// keeps the paper's *semantics* (same five-tuple identity, same THRESHOLD
// staleness predicate via flow_expired(), same soft-state discipline) on
// production-scale structures:
//
//   - Entries live in a contiguous slab, indexed by dense 32-bit ids handed
//     out from a free list. The slab is reserved to the budget up front.
//   - A FlatMap maps FlowAttributes -> slab id. Exact matching: no flow is
//     ever terminated by a hash collision.
//   - A hierarchical TimerWheel holds one timer per flow at its expiry
//     deadline (last + THRESHOLD). sweep() advances the wheel and costs
//     O(expired), not O(table); the mapper's per-datagram cost stays O(1)
//     because a hit does NOT touch the wheel -- the timer fires at the
//     *old* deadline, notices the flow was active since, and lazily re-arms
//     for the new one.
//   - `max_flows` is a hard budget: when the table is full, the flow with
//     the (approximately) earliest deadline -- the longest idle -- is
//     evicted to make room, and the eviction pressure is counted. With the
//     map, slab, and wheel all reserved at construction, steady state
//     performs zero heap growth (asserted via rehashes()/slab_grows).
//
// Eviction is soft-state-safe for exactly the reason sweeping is: a
// datagram for an evicted flow simply starts a fresh flow with a fresh sfl
// and key. Budget pressure costs key derivations, never correctness.
#pragma once

#include <cstdint>

#include "fbs/fam.hpp"
#include "util/flat_map.hpp"
#include "util/flow_hash.hpp"
#include "util/timer_wheel.hpp"

namespace fbs::core {

/// Full-avalanche hash over the five-tuple-plus-aux, built from the shard
/// hash family (flow_hash_combine), not the cache_index family -- see
/// flow_hash.hpp on keeping the two decorrelated.
struct FlowAttrsHash {
  std::uint64_t operator()(const FlowAttributes& a) const {
    std::uint64_t h = util::mix64(
        static_cast<std::uint64_t>(a.source_address) << 32 |
        a.destination_address);
    h = util::flow_hash_combine(
        h, static_cast<std::uint64_t>(a.source_port) << 32 |
               static_cast<std::uint64_t>(a.destination_port) << 16 |
               a.protocol);
    return util::flow_hash_combine(h, a.aux);
  }
};

class MegaflowPolicy final : public FlowPolicy {
 public:
  /// `max_flows`: hard per-shard budget (slab/map/wheel are reserved for it
  /// at construction). `tick_shift`: wheel tick granularity, log2
  /// microseconds (default ~1.05 s ticks; see timer_wheel.hpp).
  MegaflowPolicy(std::size_t max_flows, util::TimeUs threshold,
                 SflAllocator& sfl_alloc, unsigned tick_shift = 20);

  std::string name() const override;
  MapResult map(const Datagram& d, util::TimeUs now) override;
  std::size_t sweep(util::TimeUs now) override;
  void expire_flow(const FlowAttributes& attrs) override;
  const FlowStateEntry* find(const FlowAttributes& attrs) const override;
  std::size_t active_flows(util::TimeUs now) const override;
  void clear() override;
  const FamStats& stats() const override { return stats_; }
  const MegaflowStats* mega_stats() const override;

  util::TimeUs threshold() const { return threshold_; }
  std::size_t max_flows() const { return max_flows_; }
  std::size_t live_flows() const { return live_; }
  const util::TimerWheel& wheel() const { return wheel_; }

 private:
  std::uint32_t alloc_slot();
  void retire(std::uint32_t idx);
  FlowStateEntry& start_flow(FlowStateEntry& e, const FlowAttributes& attrs,
                             util::TimeUs now, std::uint64_t bytes);

  std::size_t max_flows_;
  util::TimeUs threshold_;
  SflAllocator& sfl_alloc_;

  std::vector<FlowStateEntry> slab_;
  std::vector<std::uint32_t> free_;  // retired slab ids, reused LIFO
  util::FlatMap<FlowAttributes, std::uint32_t, FlowAttrsHash> map_;
  util::TimerWheel wheel_;
  std::size_t slab_reserved_ = 0;  // capacity after construction
  std::size_t live_ = 0;

  FamStats stats_;
  mutable MegaflowStats mega_;  // refreshed by mega_stats()
};

}  // namespace fbs::core
