// The Flow Association Mechanism (Section 5.1, Figure 1).
//
// The FAM separates outgoing datagrams into flows. It is policy driven:
// *mapper* modules classify a datagram to a flow-state-table entry and
// *sweeper* modules expire inactive flows. A FlowPolicy bundles the mapper
// and sweeper halves plus their shared table, mirroring Figure 7's
// FST/mapper()/sweeper() pseudo-code.
//
// State here is local to the sender only -- "the state is not distributed
// between the source and destination principals"; the receiver just
// demultiplexes on the sfl carried in each datagram.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "fbs/caches.hpp"
#include "fbs/principal.hpp"
#include "util/clock.hpp"
#include "util/rng.hpp"

namespace fbs::core {

/// THE staleness predicate (Section 7.1): a flow whose last datagram
/// arrived strictly more than THRESHOLD ago has crossed a conversation
/// boundary. Every consumer -- the mapper probe, the sweeper, active-flow
/// accounting, the combined FST+TFKC fast path, and the timer-wheel expiry
/// of the million-flow policy -- must call this one inline, so an entry can
/// never be stale for the mapper yet alive for the sweeper (or vice versa).
/// A gap of exactly THRESHOLD continues the flow.
constexpr bool flow_expired(util::TimeUs last, util::TimeUs now,
                            util::TimeUs threshold) {
  return now - last > threshold;
}

/// One row of the flow state table (Figure 7's FSTEntry).
struct FlowStateEntry {
  bool valid = false;
  Sfl sfl = 0;
  FlowAttributes attrs;
  util::TimeUs created = 0;
  util::TimeUs last = 0;  // last datagram arrival time
  std::uint64_t datagrams = 0;
  std::uint64_t bytes = 0;  // payload bytes sent on this flow (key wear-out)
};

/// Security-flow-label allocator (Section 5.3): a 64-bit counter with a
/// randomized initial value, so labels are unique until the counter wraps
/// (by which time the master key must have changed) and a rebooted machine
/// does not reuse labels.
/// The counter is the one piece of send-side state shared by every flow
/// domain (sfl uniqueness must hold across shards), so it is a lone relaxed
/// atomic rather than per-domain state.
class SflAllocator {
 public:
  explicit SflAllocator(util::RandomSource& rng) : next_(rng.next_u64()) {}
  Sfl allocate() { return next_.fetch_add(1, std::memory_order_relaxed); }
  Sfl peek_next() const { return next_.load(std::memory_order_relaxed); }

 private:
  std::atomic<Sfl> next_;
};

struct FamStats {
  std::uint64_t datagrams = 0;
  std::uint64_t flows_created = 0;
  std::uint64_t mapper_hits = 0;          // datagram joined an existing flow
  std::uint64_t hash_evictions = 0;       // live entry displaced by collision
  std::uint64_t mapper_expirations = 0;   // entry stale at map time
  std::uint64_t sweeper_expirations = 0;  // entries invalidated by sweeper
};

struct MapResult {
  Sfl sfl = 0;
  bool new_flow = false;
};

/// Control-plane counters specific to the budgeted flat-hash/timer-wheel
/// policy (DESIGN.md 5i). Exposed through FlowPolicy::mega_stats() so the
/// obs registry can publish eviction pressure and wheel behaviour without
/// the engine knowing the concrete policy type.
struct MegaflowStats {
  std::uint64_t budget_evictions = 0;  // live flows evicted at the budget
  std::uint64_t wheel_cascades = 0;    // timer nodes re-placed across levels
  std::uint64_t wheel_fires = 0;       // timer callbacks delivered
  std::uint64_t sweep_touched = 0;     // entries + buckets examined expiring
  std::uint64_t map_rehashes = 0;      // flat-map growths after reserve
  std::uint64_t slab_grows = 0;        // entry-slab growths after reserve
  std::size_t live_flows = 0;          // snapshot at stats() time
  std::size_t peak_live_flows = 0;
  double map_load_factor = 0;
  std::size_t resident_bytes = 0;      // map + slab + wheel footprint
};

/// A pluggable mapper+sweeper pair with its flow state table.
class FlowPolicy {
 public:
  virtual ~FlowPolicy() = default;

  virtual std::string name() const = 0;

  /// Mapper: classify `d` into a flow (creating one if necessary) and
  /// return its sfl.
  virtual MapResult map(const Datagram& d, util::TimeUs now) = 0;

  /// Sweeper: scan the table and expire inactive flows; returns the number
  /// of flows expired.
  virtual std::size_t sweep(util::TimeUs now) = 0;

  /// Terminate the flow currently holding `attrs` (if any), so the next
  /// matching datagram starts a new flow with a new sfl. This is the
  /// rekeying hook of Section 5.2 ("rekeying can be easily accomplished via
  /// the FAM by changing the sfl").
  virtual void expire_flow(const FlowAttributes& attrs) { (void)attrs; }

  /// Inspect the live entry for `attrs` (nullptr if none); lets rekeying
  /// policy modules examine flow age and usage.
  virtual const FlowStateEntry* find(const FlowAttributes& attrs) const {
    (void)attrs;
    return nullptr;
  }

  /// Flows currently considered active.
  virtual std::size_t active_flows(util::TimeUs now) const = 0;

  /// Drop the whole flow state table (crash/restart simulation). Soft
  /// state: subsequent datagrams simply start fresh flows. This is the only
  /// path allowed to walk the table; point expiry goes through
  /// expire_flow()'s keyed erase.
  virtual void clear() {}

  virtual const FamStats& stats() const = 0;

  /// Budget/wheel counters for policies that have them (the megaflow
  /// policy); nullptr for the paper's fixed-table policies.
  virtual const MegaflowStats* mega_stats() const { return nullptr; }
};

/// The paper's example IP security flow policy (Section 7.1, Figure 7): a
/// flow is a sequence of datagrams with the same
/// <protocol, saddr, sport, daddr, dport> whose inter-arrival gaps never
/// exceed THRESHOLD. Table is direct-mapped by CRC-32 of the five-tuple;
/// a hash collision prematurely terminates the displaced flow (footnote 11:
/// harmless to security, rare for reasonable FSTSIZE).
class FiveTuplePolicy final : public FlowPolicy {
 public:
  FiveTuplePolicy(std::size_t fst_size, util::TimeUs threshold,
                  SflAllocator& sfl_alloc);

  std::string name() const override;
  MapResult map(const Datagram& d, util::TimeUs now) override;
  std::size_t sweep(util::TimeUs now) override;
  void expire_flow(const FlowAttributes& attrs) override;
  const FlowStateEntry* find(const FlowAttributes& attrs) const override;
  std::size_t active_flows(util::TimeUs now) const override;
  void clear() override;
  const FamStats& stats() const override { return stats_; }

  util::TimeUs threshold() const { return threshold_; }
  const std::vector<FlowStateEntry>& table() const { return table_; }

 private:
  std::size_t index_of(const FlowAttributes& attrs) const;

  std::vector<FlowStateEntry> table_;
  util::TimeUs threshold_;
  SflAllocator& sfl_alloc_;
  FamStats stats_;
};

/// Host-pair flows: one flow per (source address, destination address).
/// This is the paper's fallback for raw IP (footnote 10: "raw IP can be
/// considered as host-level flows") and the granularity SKIP-style schemes
/// are stuck with.
class HostPairPolicy final : public FlowPolicy {
 public:
  HostPairPolicy(std::size_t table_size, util::TimeUs threshold,
                 SflAllocator& sfl_alloc);

  std::string name() const override { return "host-pair"; }
  MapResult map(const Datagram& d, util::TimeUs now) override;
  std::size_t sweep(util::TimeUs now) override;
  std::size_t active_flows(util::TimeUs now) const override;
  void clear() override;
  const FamStats& stats() const override { return stats_; }

 private:
  std::vector<FlowStateEntry> table_;
  util::TimeUs threshold_;
  SflAllocator& sfl_alloc_;
  FamStats stats_;
};

/// Degenerate policy: every datagram is its own flow. This recreates the
/// per-datagram keying cost that Section 7.4 contrasts FBS against; used by
/// the ablation bench.
class PerDatagramPolicy final : public FlowPolicy {
 public:
  explicit PerDatagramPolicy(SflAllocator& sfl_alloc)
      : sfl_alloc_(sfl_alloc) {}

  std::string name() const override { return "per-datagram"; }
  MapResult map(const Datagram& d, util::TimeUs now) override;
  std::size_t sweep(util::TimeUs) override { return 0; }
  std::size_t active_flows(util::TimeUs) const override { return 0; }
  const FamStats& stats() const override { return stats_; }

 private:
  SflAllocator& sfl_alloc_;
  FamStats stats_;
};

}  // namespace fbs::core
