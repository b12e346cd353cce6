// Software key caches (Section 5.3, Figure 5).
//
// FBS performance rests on four caches -- PVC (public-value certificates),
// MKC (pair-based master keys), TFKC and RFKC (transmit/receive flow keys).
// The paper requires them to be fast software caches: low associativity,
// and an index hash that *randomizes correlated inputs* (local addresses,
// sequential sfls) -- it names CRC-32; we also provide the naive modulo and
// XOR-fold hashes it warns against, for the ablation bench.
//
// Misses are classified into the paper's three kinds -- compulsory (cold),
// capacity, and collision (conflict) -- using a *bounded* LRU-stack
// simulator: a non-cold miss whose reuse distance fits within the cache's
// total capacity would have hit in a fully-associative cache, so it is a
// collision miss; otherwise it is a capacity miss. The simulated stack is
// capped (default kDefaultMaxDepth, covering the largest Figure 11
// capacity), so classification memory is bounded no matter how many flows
// pass through -- the million-flow requirement of DESIGN.md 5i. References
// deeper than the cap are capacity misses by definition (reuse distance >
// depth >= capacity); cold detection for keys that fell off the stack uses
// a fixed-size Bloom filter of everything ever evicted, whose rare false
// positives shift a cold miss to capacity but never perturb the hit/miss
// split.
//
// Every classifier access is O(1) and, once the stack is full, allocation-
// free: each stack node carries an "in the top `capacity`" flag and the
// classifier keeps an iterator to the deepest flagged node, so "reuse
// distance < capacity" is a flag read instead of a walk, and moving a node
// to the top moves at most one other node across the boundary. A push onto
// a full stack recycles the evicted bottom node and its key buffer, and the
// position map is keyed by views into the nodes. Each access hashes its key
// once: the position map and the Bloom filter share that hash, and each
// node keeps its own for when it is evicted.
#pragma once

#include <algorithm>
#include <cstdint>
#include <list>
#include <vector>

#include "util/bytes.hpp"
#include "util/crc32.hpp"
#include "util/flat_map.hpp"

namespace fbs::core {

enum class CacheHashKind : std::uint8_t {
  kCrc32,    // the paper's recommendation
  kModulo,   // low bytes of the raw key, mod nsets
  kXorFold,  // XOR of 32-bit words, mod nsets
};

/// Map a key to a set index in [0, nsets).
std::size_t cache_index(CacheHashKind kind, util::BytesView key,
                        std::size_t nsets);

struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t cold_misses = 0;
  std::uint64_t capacity_misses = 0;
  std::uint64_t collision_misses = 0;

  std::uint64_t misses() const {
    return cold_misses + capacity_misses + collision_misses;
  }
  std::uint64_t accesses() const { return hits + misses(); }
  double miss_rate() const {
    return accesses() ? static_cast<double>(misses()) /
                            static_cast<double>(accesses())
                      : 0.0;
  }
};

/// Ordering over raw byte ranges with heterogeneous lookup, so cache probes
/// keyed by a BytesView never materialize a util::Bytes.
struct ByteRangeLess {
  using is_transparent = void;
  bool operator()(util::BytesView a, util::BytesView b) const {
    return std::lexicographical_compare(a.begin(), a.end(), b.begin(),
                                        b.end());
  }
};

/// Bounded LRU-stack miss classifier (fully-associative cache simulator,
/// truncated at max_depth entries) for a cache of a fixed total capacity.
class MissClassifier {
 public:
  enum class MissKind { kCold, kCapacity, kCollision };

  /// Default stack cap: covers the largest Figure 11 cache capacity (512)
  /// with 2x headroom, so every classification the paper's study makes is
  /// still exact.
  static constexpr std::size_t kDefaultMaxDepth = 1024;

  /// Classify for a cache holding `capacity` entries in total. A capacity
  /// above max_depth classifies as max_depth would: every key still on the
  /// stack is within it.
  explicit MissClassifier(std::size_t capacity,
                          std::size_t max_depth = kDefaultMaxDepth)
      : max_depth_(max_depth ? max_depth : 1),
        capacity_(std::clamp<std::size_t>(capacity, 1, max_depth_)) {}

  // Moving keeps the stack's nodes, so boundary_ and pos_ stay valid; a
  // copy's would point into the source.
  MissClassifier(MissClassifier&&) = default;
  MissClassifier& operator=(MissClassifier&&) = default;

  /// Classify a miss on `key`, then push the reference onto the stack.
  MissKind classify_miss(util::BytesView key);
  /// Record a hit: the key moves to the top of the stack. (A hit on a key
  /// the classifier never saw miss -- e.g. one pinned directly into the
  /// cache -- still enters the stack.)
  void record_hit(util::BytesView key);

  std::size_t max_depth() const { return max_depth_; }
  std::size_t stack_size() const { return lru_.size(); }
  /// Footprint of the simulator: position map slots + Bloom filter + stack
  /// nodes. Bounded by max_depth (plus the fixed filter), not by the number
  /// of distinct keys ever seen -- the regression test pins this.
  std::size_t approx_memory_bytes() const {
    return pos_.memory_bytes() + ever_evicted_.capacity() * sizeof(std::uint64_t) +
           stack_key_bytes_ + lru_.size() * (sizeof(void*) * 2 + sizeof(Node));
  }

 private:
  // Fixed-size blocked Bloom filter over evicted keys: 2^17 words = 1 MiB,
  // 4 probes. At 10^6 distinct evicted keys the false-positive rate is a
  // few percent of *cold* misses only; at the paper's trace scale it is
  // effectively zero.
  static constexpr std::size_t kBloomWords = std::size_t{1} << 17;

  struct Node {
    util::Bytes key;
    std::uint64_t hash = 0;  // util::flow_hash64(key)
    bool top = false;  // within the top capacity_ positions of the stack
  };
  using Stack = std::list<Node>;

  /// A position-map key: a view of the key bytes plus their flow_hash64.
  struct HashedKey {
    util::BytesView bytes;
    std::uint64_t hash = 0;
  };
  struct HashedKeyHash {
    std::uint64_t operator()(const HashedKey& k) const { return k.hash; }
  };
  struct HashedKeyEq {
    bool operator()(const HashedKey& a, const HashedKey& b) const {
      return std::ranges::equal(a.bytes, b.bytes);
    }
  };

  void push_new(HashedKey key);
  void move_to_top(Stack::iterator it);
  /// Bloom filter of evicted keys, probed by a key's flow_hash64.
  void note_evicted(std::uint64_t h1);
  bool ever_evicted(std::uint64_t h1) const;

  std::size_t max_depth_;
  std::size_t capacity_;  // in [1, max_depth_]
  Stack lru_;
  /// The node at stack position capacity_ - 1 (the deepest top node);
  /// meaningful once the stack holds capacity_ nodes.
  Stack::iterator boundary_;
  util::FlatMap<HashedKey, Stack::iterator, HashedKeyHash, HashedKeyEq>
      pos_;  // keys are views into the nodes' own key buffers
  std::vector<std::uint64_t> ever_evicted_;  // Bloom bits, sized lazily
  std::size_t stack_key_bytes_ = 0;
};

/// Set-associative software cache with LRU replacement within each set.
/// ways == 1 gives the direct-mapped organization of Figure 7 / Section 5.3.
template <typename Value>
class SetAssociativeCache {
 public:
  SetAssociativeCache(std::size_t capacity, std::size_t ways = 1,
                      CacheHashKind hash = CacheHashKind::kCrc32)
      : ways_(ways ? ways : 1),
        nsets_(capacity / (ways ? ways : 1) ? capacity / (ways ? ways : 1)
                                            : 1),
        hash_(hash),
        sets_(nsets_ * ways_),
        classifier_(nsets_ * ways_) {}

  std::size_t capacity() const { return nsets_ * ways_; }

  /// nullptr on miss (recorded in stats with its 3C classification). Keys
  /// are plain views: a hit performs no allocation at all.
  Value* lookup(util::BytesView key) {
    Entry* e = find(key);
    if (e) {
      e->lru_tick = ++tick_;
      ++stats_.hits;
      classifier_.record_hit(key);
      return &e->value;
    }
    switch (classifier_.classify_miss(key)) {
      case MissClassifier::MissKind::kCold: ++stats_.cold_misses; break;
      case MissClassifier::MissKind::kCapacity: ++stats_.capacity_misses; break;
      case MissClassifier::MissKind::kCollision: ++stats_.collision_misses; break;
    }
    return nullptr;
  }

  /// Peek without touching stats or LRU state.
  const Value* peek(util::BytesView key) const {
    const Entry* e = const_cast<SetAssociativeCache*>(this)->find(key);
    return e ? &e->value : nullptr;
  }

  /// Insert/overwrite; evicts the LRU way of the set if full. Returns the
  /// stored value, which stays valid until the next insert touching its set.
  Value* insert(util::BytesView key, Value value) {
    const std::size_t set = cache_index(hash_, key, nsets_);
    Entry* slot = nullptr;
    for (std::size_t w = 0; w < ways_; ++w) {
      Entry& e = sets_[set * ways_ + w];
      if (e.valid && std::ranges::equal(e.key, key)) {
        slot = &e;
        break;
      }
      if (!slot && !e.valid) slot = &e;
    }
    if (!slot) {  // evict LRU way
      slot = &sets_[set * ways_];
      for (std::size_t w = 1; w < ways_; ++w) {
        Entry& e = sets_[set * ways_ + w];
        if (e.lru_tick < slot->lru_tick) slot = &e;
      }
      ++evictions_;
    }
    slot->valid = true;
    slot->key.assign(key.begin(), key.end());
    slot->value = std::move(value);
    slot->lru_tick = ++tick_;
    return &slot->value;
  }

  void erase(util::BytesView key) {
    if (Entry* e = find(key)) e->valid = false;
  }

  void clear() {
    for (Entry& e : sets_) e.valid = false;
  }

  const CacheStats& stats() const { return stats_; }
  std::uint64_t evictions() const { return evictions_; }

 private:
  struct Entry {
    bool valid = false;
    util::Bytes key;
    Value value{};
    std::uint64_t lru_tick = 0;
  };

  Entry* find(util::BytesView key) {
    const std::size_t set = cache_index(hash_, key, nsets_);
    for (std::size_t w = 0; w < ways_; ++w) {
      Entry& e = sets_[set * ways_ + w];
      if (e.valid && std::ranges::equal(e.key, key)) return &e;
    }
    return nullptr;
  }

  std::size_t ways_;
  std::size_t nsets_;
  CacheHashKind hash_;
  std::vector<Entry> sets_;
  std::uint64_t tick_ = 0;
  std::uint64_t evictions_ = 0;
  CacheStats stats_;
  MissClassifier classifier_;
};

}  // namespace fbs::core
