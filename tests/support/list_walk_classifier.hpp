// The list-walk LRU-stack miss classifier, kept as the test oracle for
// core::MissClassifier. It answers "is the reuse distance below the cache
// capacity?" by walking the stack from the top, up to `capacity` nodes per
// miss, and takes the capacity per call. Stack cap and Bloom filter of
// evicted keys are the same as the production classifier's, so the two
// must agree on every classification.
#pragma once

#include <cstdint>
#include <list>
#include <vector>

#include "util/bytes.hpp"
#include "util/flat_map.hpp"
#include "util/flow_hash.hpp"

namespace fbs::testing {

class ListWalkClassifier {
 public:
  enum class MissKind { kCold, kCapacity, kCollision };

  explicit ListWalkClassifier(std::size_t max_depth)
      : max_depth_(max_depth ? max_depth : 1) {}

  /// Classify a miss on `key` for a cache holding `capacity` entries total,
  /// then push the reference onto the stack.
  MissKind classify_miss(util::BytesView key, std::size_t capacity) {
    auto* it = pos_.find(key);
    if (it == nullptr) {
      const MissKind kind =
          ever_evicted(key) ? MissKind::kCapacity : MissKind::kCold;
      push_new(key);
      return kind;
    }
    const MissKind kind = stack_distance(key, capacity) < capacity
                              ? MissKind::kCollision
                              : MissKind::kCapacity;
    lru_.splice(lru_.begin(), lru_, *it);
    return kind;
  }

  void record_hit(util::BytesView key) {
    auto* it = pos_.find(key);
    if (it != nullptr) {
      lru_.splice(lru_.begin(), lru_, *it);
      return;
    }
    push_new(key);
  }

  std::size_t stack_size() const { return lru_.size(); }

 private:
  static constexpr std::size_t kBloomWords = std::size_t{1} << 17;

  std::size_t stack_distance(util::BytesView key, std::size_t limit) const {
    std::size_t d = 0;
    for (const auto& k : lru_) {
      if (std::ranges::equal(k, key)) return d;
      if (++d >= limit) break;
    }
    return SIZE_MAX;
  }

  void push_new(util::BytesView key) {
    lru_.emplace_front(key.begin(), key.end());
    pos_.try_emplace(lru_.front(), lru_.begin());
    if (lru_.size() > max_depth_) {
      const util::Bytes& victim = lru_.back();
      note_evicted(victim);
      pos_.erase(util::BytesView{victim});
      lru_.pop_back();
    }
  }

  void note_evicted(util::BytesView key) {
    if (ever_evicted_.empty()) ever_evicted_.assign(kBloomWords, 0);
    const std::uint64_t h1 = util::flow_hash64(key);
    const std::uint64_t h2 = util::mix64(h1) | 1;
    for (std::uint64_t i = 0; i < 4; ++i) {
      const std::uint64_t bit = (h1 + i * h2) % (kBloomWords * 64);
      ever_evicted_[bit >> 6] |= std::uint64_t{1} << (bit & 63);
    }
  }

  bool ever_evicted(util::BytesView key) const {
    if (ever_evicted_.empty()) return false;
    const std::uint64_t h1 = util::flow_hash64(key);
    const std::uint64_t h2 = util::mix64(h1) | 1;
    for (std::uint64_t i = 0; i < 4; ++i) {
      const std::uint64_t bit = (h1 + i * h2) % (kBloomWords * 64);
      if (!(ever_evicted_[bit >> 6] & std::uint64_t{1} << (bit & 63)))
        return false;
    }
    return true;
  }

  std::size_t max_depth_;
  std::list<util::Bytes> lru_;
  util::FlatMap<util::Bytes, std::list<util::Bytes>::iterator,
                util::ByteRangeHash, util::ByteRangeEq>
      pos_;
  std::vector<std::uint64_t> ever_evicted_;
};

}  // namespace fbs::testing
