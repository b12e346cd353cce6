#include "fbs/caches.hpp"

#include <gtest/gtest.h>

#include "support/list_walk_classifier.hpp"
#include "trace/internet.hpp"
#include "util/rng.hpp"

namespace fbs::core {
namespace {

util::Bytes key_of(std::uint64_t v) {
  util::ByteWriter w(8);
  w.u64(v);
  return w.take();
}

TEST(CacheIndex, AlwaysInRange) {
  util::SplitMix64 rng(1);
  for (auto kind : {CacheHashKind::kCrc32, CacheHashKind::kModulo,
                    CacheHashKind::kXorFold}) {
    for (int i = 0; i < 200; ++i) {
      const util::Bytes k = rng.next_bytes(1 + rng.next_below(20));
      EXPECT_LT(cache_index(kind, k, 7), 7u);
      EXPECT_EQ(cache_index(kind, k, 1), 0u);
    }
  }
}

TEST(CacheIndex, Deterministic) {
  const util::Bytes k = key_of(42);
  EXPECT_EQ(cache_index(CacheHashKind::kCrc32, k, 64),
            cache_index(CacheHashKind::kCrc32, k, 64));
}

TEST(CacheIndex, ModuloClustersSequentialKeys) {
  // The failure mode Section 5.3 warns about: sequential sfls under raw
  // modulo all land in consecutive sets of a power-of-two... and worse, with
  // stride-N allocation they collide. CRC-32 spreads them.
  constexpr std::size_t kSets = 64;
  std::vector<int> mod_hist(kSets, 0), crc_hist(kSets, 0);
  for (std::uint64_t i = 0; i < 256; ++i) {
    const util::Bytes k = key_of(i * kSets);  // strided labels
    ++mod_hist[cache_index(CacheHashKind::kModulo, k, kSets)];
    ++crc_hist[cache_index(CacheHashKind::kCrc32, k, kSets)];
  }
  const int mod_peak = *std::max_element(mod_hist.begin(), mod_hist.end());
  const int crc_peak = *std::max_element(crc_hist.begin(), crc_hist.end());
  EXPECT_EQ(mod_peak, 256);  // all collide into one set
  EXPECT_LT(crc_peak, 20);
}

TEST(MissClassifier, FirstAccessIsCold) {
  MissClassifier c(/*capacity=*/4);
  EXPECT_EQ(c.classify_miss(key_of(1)), MissClassifier::MissKind::kCold);
  EXPECT_EQ(c.classify_miss(key_of(2)), MissClassifier::MissKind::kCold);
}

TEST(MissClassifier, ShortReuseIsCollision) {
  MissClassifier c(/*capacity=*/4);
  (void)c.classify_miss(key_of(1));
  (void)c.classify_miss(key_of(2));
  // Key 1 was referenced 1 step ago (< capacity 4): a fully associative
  // cache would have kept it, so a miss on it is a collision miss.
  EXPECT_EQ(c.classify_miss(key_of(1)),
            MissClassifier::MissKind::kCollision);
}

TEST(MissClassifier, LongReuseIsCapacity) {
  MissClassifier c(/*capacity=*/2);
  (void)c.classify_miss(key_of(0));
  for (std::uint64_t i = 1; i <= 5; ++i) (void)c.classify_miss(key_of(i));
  // Key 0 is 5 deep in the stack; capacity 2 could not have held it.
  EXPECT_EQ(c.classify_miss(key_of(0)),
            MissClassifier::MissKind::kCapacity);
}

TEST(MissClassifier, HitsRefreshStackPosition) {
  MissClassifier c(/*capacity=*/2);
  (void)c.classify_miss(key_of(0));
  (void)c.classify_miss(key_of(1));
  c.record_hit(key_of(0));  // 0 back on top
  (void)c.classify_miss(key_of(2));
  (void)c.classify_miss(key_of(3));
  // 1 is now deepest; 0 was refreshed more recently but still 3 deep.
  EXPECT_EQ(c.classify_miss(key_of(1)),
            MissClassifier::MissKind::kCapacity);
}

TEST(MissClassifier, EvictedKeyReclassifiesAsCapacityNotCold) {
  // A key pushed off the bounded stack is remembered (Bloom filter of
  // evicted keys): its return is a capacity miss -- the unbounded simulator
  // would have found it deep in the stack -- never a fresh cold miss.
  MissClassifier c(/*capacity=*/2, /*max_depth=*/4);
  (void)c.classify_miss(key_of(0));
  for (std::uint64_t i = 1; i < 10; ++i) (void)c.classify_miss(key_of(i));
  EXPECT_EQ(c.stack_size(), 4u);
  EXPECT_EQ(c.classify_miss(key_of(0)),
            MissClassifier::MissKind::kCapacity);
}

// Satellite regression: the classifier must hold bounded state on an
// internet-scale reference stream. Before the bound, the LRU stack and
// position map grew with every distinct key ever seen (gigabytes at 1M
// flows); now both are capped by max_depth plus a fixed filter, so memory
// plateaus and per-classification cost stays O(1) -- independent of trace
// length.
TEST(MissClassifier, BoundedMemoryOnHundredThousandFlowTrace) {
  // Default depth 1024 covers the fig11 study exactly.
  MissClassifier c(/*capacity=*/512);
  std::size_t mem_at_20k = 0;
  for (std::uint64_t i = 0; i < 100000; ++i) {
    (void)c.classify_miss(key_of(i));
    if (i == 19999) mem_at_20k = c.approx_memory_bytes();
  }
  // The stack never outgrows its cap...
  EXPECT_EQ(c.stack_size(), MissClassifier::kDefaultMaxDepth);
  // ...and the footprint stopped growing long before the trace ended: 80k
  // further distinct keys added zero bytes.
  EXPECT_EQ(c.approx_memory_bytes(), mem_at_20k);
  // Sanity on the absolute bound: ~1 MiB Bloom filter + the capped stack.
  EXPECT_LT(c.approx_memory_bytes(), std::size_t{4} << 20);
}

TEST(Cache, InsertThenLookupHits) {
  SetAssociativeCache<int> cache(8);
  cache.insert(key_of(1), 111);
  auto* v = cache.lookup(key_of(1));
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(*v, 111);
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(Cache, MissReturnsNullAndCounts) {
  SetAssociativeCache<int> cache(8);
  EXPECT_EQ(cache.lookup(key_of(9)), nullptr);
  EXPECT_EQ(cache.stats().cold_misses, 1u);
  EXPECT_EQ(cache.stats().miss_rate(), 1.0);
}

TEST(Cache, OverwriteSameKey) {
  SetAssociativeCache<int> cache(8);
  cache.insert(key_of(1), 1);
  cache.insert(key_of(1), 2);
  EXPECT_EQ(*cache.lookup(key_of(1)), 2);
}

TEST(Cache, EraseInvalidates) {
  SetAssociativeCache<int> cache(8);
  cache.insert(key_of(1), 1);
  cache.erase(key_of(1));
  EXPECT_EQ(cache.lookup(key_of(1)), nullptr);
}

TEST(Cache, ClearInvalidatesEverything) {
  SetAssociativeCache<int> cache(8);
  for (std::uint64_t i = 0; i < 8; ++i) cache.insert(key_of(i), 1);
  cache.clear();
  for (std::uint64_t i = 0; i < 8; ++i)
    EXPECT_EQ(cache.lookup(key_of(i)), nullptr);
}

TEST(Cache, PeekDoesNotTouchStats) {
  SetAssociativeCache<int> cache(8);
  cache.insert(key_of(1), 5);
  EXPECT_NE(cache.peek(key_of(1)), nullptr);
  EXPECT_EQ(cache.peek(key_of(2)), nullptr);
  EXPECT_EQ(cache.stats().accesses(), 0u);
}

TEST(Cache, DirectMappedConflictEvicts) {
  // Capacity 4 direct-mapped: two keys hashing to the same set displace
  // each other regardless of the other sets being empty.
  SetAssociativeCache<int> cache(4, 1);
  // Find two keys in the same set.
  util::Bytes a = key_of(0);
  util::Bytes b;
  const std::size_t target = cache_index(CacheHashKind::kCrc32, a, 4);
  for (std::uint64_t i = 1;; ++i) {
    b = key_of(i);
    if (cache_index(CacheHashKind::kCrc32, b, 4) == target) break;
  }
  cache.insert(a, 1);
  cache.insert(b, 2);
  EXPECT_EQ(cache.lookup(a), nullptr);  // evicted by b
  EXPECT_NE(cache.lookup(b), nullptr);
  EXPECT_EQ(cache.evictions(), 1u);
}

TEST(Cache, TwoWayAssociativityAvoidsThatConflict) {
  SetAssociativeCache<int> dm(4, 1), sa(4, 2);
  // Same key pair as above: find keys colliding in the 2-set configuration.
  util::Bytes a = key_of(0);
  util::Bytes b;
  const std::size_t target = cache_index(CacheHashKind::kCrc32, a, 2);
  for (std::uint64_t i = 1;; ++i) {
    b = key_of(i);
    if (cache_index(CacheHashKind::kCrc32, b, 2) == target) break;
  }
  sa.insert(a, 1);
  sa.insert(b, 2);
  EXPECT_NE(sa.lookup(a), nullptr);  // both ways hold
  EXPECT_NE(sa.lookup(b), nullptr);
}

TEST(Cache, LruEvictionWithinSet) {
  // One set, 2 ways: the least recently used way is the victim.
  SetAssociativeCache<int> cache(2, 2);
  cache.insert(key_of(1), 1);
  cache.insert(key_of(2), 2);
  (void)cache.lookup(key_of(1));  // 2 becomes LRU
  cache.insert(key_of(3), 3);
  EXPECT_NE(cache.lookup(key_of(1)), nullptr);
  EXPECT_EQ(cache.lookup(key_of(2)), nullptr);
  EXPECT_NE(cache.lookup(key_of(3)), nullptr);
}

TEST(Cache, StatsClassifyAllThreeMissKinds) {
  SetAssociativeCache<int> cache(2, 1);
  // Cold miss:
  (void)cache.lookup(key_of(1));
  cache.insert(key_of(1), 1);
  // Flood with many distinct keys -> capacity territory for key 1.
  for (std::uint64_t i = 10; i < 20; ++i) {
    (void)cache.lookup(key_of(i));
    cache.insert(key_of(i), 1);
  }
  (void)cache.lookup(key_of(1));
  const CacheStats& s = cache.stats();
  EXPECT_GE(s.cold_misses, 11u);
  EXPECT_GE(s.capacity_misses + s.collision_misses, 1u);
  EXPECT_EQ(s.accesses(), s.hits + s.misses());
}

TEST(Cache, CapacityRoundsToWholeSets) {
  SetAssociativeCache<int> cache(7, 2);  // 3 sets * 2 ways
  EXPECT_EQ(cache.capacity(), 6u);
  SetAssociativeCache<int> tiny(0, 1);
  EXPECT_EQ(tiny.capacity(), 1u);
}

class CacheHashSweep : public ::testing::TestWithParam<CacheHashKind> {};

TEST_P(CacheHashSweep, WorkingSetSmallerThanCacheEventuallyAllHits) {
  SetAssociativeCache<int> cache(64, 4, GetParam());
  // 16 keys, cycled 10 times: after the cold pass everything should hit for
  // a well-spread hash; weak hashes may conflict but must stay correct.
  for (int round = 0; round < 10; ++round) {
    for (std::uint64_t k = 0; k < 16; ++k) {
      if (!cache.lookup(key_of(k * 1000))) cache.insert(key_of(k * 1000), 1);
    }
  }
  const CacheStats& s = cache.stats();
  EXPECT_EQ(s.accesses(), 160u);
  if (GetParam() == CacheHashKind::kCrc32) {
    // The recommended hash spreads the strided keys: cold misses only.
    EXPECT_EQ(s.misses(), 16u);
    EXPECT_EQ(s.hits, 144u);
  } else {
    // The naive hashes may cluster (that is Section 5.3's point) but the
    // cache must stay correct: every access is a hit or a classified miss.
    EXPECT_EQ(s.hits + s.misses(), 160u);
    EXPECT_GE(s.misses(), 16u);
  }
}

INSTANTIATE_TEST_SUITE_P(AllHashes, CacheHashSweep,
                         ::testing::Values(CacheHashKind::kCrc32,
                                           CacheHashKind::kModulo,
                                           CacheHashKind::kXorFold));

// --- Differential: the O(1) classifier against the list-walk oracle ---

using Oracle = fbs::testing::ListWalkClassifier;

/// `v` as a `len`-byte big-endian key (4..16 bytes: every id used fits).
util::Bytes sized_key(std::uint64_t v, std::size_t len) {
  util::Bytes k(len, 0);
  for (std::size_t i = 0; i < len && i < 8; ++i)
    k[len - 1 - i] = static_cast<std::uint8_t>(v >> (8 * i));
  return k;
}

MissClassifier::MissKind as_kind(Oracle::MissKind k) {
  switch (k) {
    case Oracle::MissKind::kCold: return MissClassifier::MissKind::kCold;
    case Oracle::MissKind::kCapacity: return MissClassifier::MissKind::kCapacity;
    case Oracle::MissKind::kCollision:
      return MissClassifier::MissKind::kCollision;
  }
  return MissClassifier::MissKind::kCold;
}

/// Which CacheStats miss counter moved between two snapshots.
MissClassifier::MissKind moved(const CacheStats& before,
                               const CacheStats& after) {
  if (after.cold_misses != before.cold_misses)
    return MissClassifier::MissKind::kCold;
  if (after.capacity_misses != before.capacity_misses)
    return MissClassifier::MissKind::kCapacity;
  return MissClassifier::MissKind::kCollision;
}

TEST(MissClassifierDifferential, CacheStreamsMatchListWalkOracle) {
  // A real set-associative cache (default stack depth 1024) classifies its
  // own misses; the oracle sees the same hit/miss events. Every miss must
  // get the same kind, so the cold/capacity/collision totals are identical.
  // Capacities span 1 to twice the stack depth, key lengths 4 to 16 bytes.
  constexpr std::size_t kAccesses = 4000;
  std::size_t config = 0;
  for (const std::uint32_t keys : {50u, 700u, 5000u}) {
    const trace::ZipfSampler zipf(keys, 1.0);
    for (const std::size_t capacity : {1, 2, 7, 64, 256, 1024, 1500, 2048}) {
      for (const std::size_t ways : {1, 2, 4}) {
        for (const bool skewed : {false, true}) {
          const std::size_t key_len = 4 + config % 13;
          util::SplitMix64 rng(1000 + config++);
          SetAssociativeCache<int> cache(capacity, ways);
          Oracle oracle(MissClassifier::kDefaultMaxDepth);
          CacheStats want;
          for (std::size_t i = 0; i < kAccesses; ++i) {
            const std::uint64_t id =
                skewed ? zipf.sample(rng) : rng.next_below(keys);
            const util::Bytes key = sized_key(id * 2654435761u, key_len);
            const CacheStats before = cache.stats();
            if (cache.lookup(key)) {
              oracle.record_hit(key);
              ++want.hits;
              continue;
            }
            const auto kind =
                as_kind(oracle.classify_miss(key, cache.capacity()));
            switch (kind) {
              case MissClassifier::MissKind::kCold: ++want.cold_misses; break;
              case MissClassifier::MissKind::kCapacity:
                ++want.capacity_misses;
                break;
              case MissClassifier::MissKind::kCollision:
                ++want.collision_misses;
                break;
            }
            ASSERT_EQ(moved(before, cache.stats()), kind)
                << "keys " << keys << " capacity " << capacity << " ways "
                << ways << " zipf " << skewed << " access " << i;
            cache.insert(key, 0);
          }
          const CacheStats& got = cache.stats();
          EXPECT_EQ(got.hits, want.hits);
          EXPECT_EQ(got.cold_misses, want.cold_misses);
          EXPECT_EQ(got.capacity_misses, want.capacity_misses);
          EXPECT_EQ(got.collision_misses, want.collision_misses);
        }
      }
    }
  }
}

TEST(MissClassifierDifferential, MixedHitsAndMissesOnAShallowStack) {
  // Standalone classifiers on a 64-deep stack: random hit/miss events on
  // random keys (a "hit" on a key either one has never seen included --
  // the very first event is one), capacities below, at and above the
  // depth. Kinds and stack sizes must agree event by event.
  constexpr std::size_t kDepth = 64;
  for (const std::size_t capacity : {1, 2, 5, 63, 64, 65, 200}) {
    for (const std::uint32_t keys : {40u, 90u, 400u}) {
      util::SplitMix64 rng(capacity * 7919 + keys);
      MissClassifier fast(capacity, kDepth);
      Oracle oracle(kDepth);
      for (std::size_t i = 0; i < 6000; ++i) {
        const util::Bytes key = sized_key(rng.next_below(keys), 4 + i % 13);
        if (i == 0 || rng.next_below(3) == 0) {
          fast.record_hit(key);
          oracle.record_hit(key);
        } else {
          ASSERT_EQ(fast.classify_miss(key),
                    as_kind(oracle.classify_miss(key, capacity)))
              << "capacity " << capacity << " keys " << keys << " event "
              << i;
        }
        ASSERT_EQ(fast.stack_size(), oracle.stack_size());
      }
    }
  }
}

}  // namespace
}  // namespace fbs::core
