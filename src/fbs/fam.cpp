#include "fbs/fam.hpp"

namespace fbs::core {

namespace {

/// Shared mapper skeleton for table-based policies: match on `attrs` at the
/// hashed index, else start a new flow there (Figure 7's mapper()).
MapResult table_map(std::vector<FlowStateEntry>& table, std::size_t index,
                    const FlowAttributes& attrs, util::TimeUs now,
                    std::uint64_t bytes, util::TimeUs threshold,
                    SflAllocator& sfl_alloc, FamStats& stats) {
  ++stats.datagrams;
  FlowStateEntry& e = table[index];

  bool reusable = e.valid && e.attrs == attrs;
  if (reusable && flow_expired(e.last, now, threshold)) {
    // Entry matches but went stale: same conversation boundary the sweeper
    // would have drawn; start a new flow (Section 7.2 combined behavior).
    ++stats.mapper_expirations;
    reusable = false;
  }
  if (reusable) {
    e.last = now;
    ++e.datagrams;
    e.bytes += bytes;
    ++stats.mapper_hits;
    return {e.sfl, false};
  }

  if (e.valid && !(e.attrs == attrs)) ++stats.hash_evictions;
  e.valid = true;
  e.sfl = sfl_alloc.allocate();
  e.attrs = attrs;
  e.created = now;
  e.last = now;
  e.datagrams = 1;
  e.bytes = bytes;
  ++stats.flows_created;
  return {e.sfl, true};
}

/// Figure 7's sweeper(): invalidate entries the shared staleness predicate
/// (flow_expired, the same one the mapper probe consults) says are gone.
std::size_t table_sweep(std::vector<FlowStateEntry>& table, util::TimeUs now,
                        util::TimeUs threshold, FamStats& stats) {
  std::size_t expired = 0;
  for (FlowStateEntry& e : table) {
    if (e.valid && flow_expired(e.last, now, threshold)) {
      e.valid = false;
      ++expired;
    }
  }
  stats.sweeper_expirations += expired;
  return expired;
}

std::size_t table_active(const std::vector<FlowStateEntry>& table,
                         util::TimeUs now, util::TimeUs threshold) {
  std::size_t n = 0;
  for (const FlowStateEntry& e : table)
    if (e.valid && !flow_expired(e.last, now, threshold)) ++n;
  return n;
}

}  // namespace

FiveTuplePolicy::FiveTuplePolicy(std::size_t fst_size, util::TimeUs threshold,
                                 SflAllocator& sfl_alloc)
    : table_(fst_size ? fst_size : 1),
      threshold_(threshold),
      sfl_alloc_(sfl_alloc) {}

std::string FiveTuplePolicy::name() const {
  return "five-tuple(threshold=" +
         std::to_string(threshold_ / util::kMicrosPerSecond) + "s)";
}

std::size_t FiveTuplePolicy::index_of(const FlowAttributes& attrs) const {
  return cache_index(CacheHashKind::kCrc32, attrs.encode(), table_.size());
}

MapResult FiveTuplePolicy::map(const Datagram& d, util::TimeUs now) {
  return table_map(table_, index_of(d.attrs), d.attrs, now, d.body.size(),
                   threshold_, sfl_alloc_, stats_);
}

std::size_t FiveTuplePolicy::sweep(util::TimeUs now) {
  return table_sweep(table_, now, threshold_, stats_);
}

void FiveTuplePolicy::expire_flow(const FlowAttributes& attrs) {
  FlowStateEntry& e = table_[index_of(attrs)];
  if (e.valid && e.attrs == attrs) e.valid = false;
}

const FlowStateEntry* FiveTuplePolicy::find(
    const FlowAttributes& attrs) const {
  const FlowStateEntry& e = table_[index_of(attrs)];
  return e.valid && e.attrs == attrs ? &e : nullptr;
}

std::size_t FiveTuplePolicy::active_flows(util::TimeUs now) const {
  return table_active(table_, now, threshold_);
}

void FiveTuplePolicy::clear() {
  for (FlowStateEntry& e : table_) e.valid = false;
}

HostPairPolicy::HostPairPolicy(std::size_t table_size, util::TimeUs threshold,
                               SflAllocator& sfl_alloc)
    : table_(table_size ? table_size : 1),
      threshold_(threshold),
      sfl_alloc_(sfl_alloc) {}

MapResult HostPairPolicy::map(const Datagram& d, util::TimeUs now) {
  // Only the address pair participates in identity: ports and protocol are
  // deliberately masked out.
  FlowAttributes attrs;
  attrs.source_address = d.attrs.source_address;
  attrs.destination_address = d.attrs.destination_address;
  const std::size_t index =
      cache_index(CacheHashKind::kCrc32, attrs.encode(), table_.size());
  return table_map(table_, index, attrs, now, d.body.size(), threshold_,
                   sfl_alloc_, stats_);
}

std::size_t HostPairPolicy::sweep(util::TimeUs now) {
  return table_sweep(table_, now, threshold_, stats_);
}

std::size_t HostPairPolicy::active_flows(util::TimeUs now) const {
  return table_active(table_, now, threshold_);
}

void HostPairPolicy::clear() {
  for (FlowStateEntry& e : table_) e.valid = false;
}

MapResult PerDatagramPolicy::map(const Datagram&, util::TimeUs) {
  ++stats_.datagrams;
  ++stats_.flows_created;
  return {sfl_alloc_.allocate(), true};
}

}  // namespace fbs::core
