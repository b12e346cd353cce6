#include "fbs/caches.hpp"

namespace fbs::core {

std::size_t cache_index(CacheHashKind kind, util::BytesView key,
                        std::size_t nsets) {
  if (nsets <= 1) return 0;
  switch (kind) {
    case CacheHashKind::kCrc32:
      return util::crc32(key) % nsets;
    case CacheHashKind::kModulo: {
      // Interpret the trailing 8 bytes as an integer -- the "simple modulo"
      // hash Section 5.3 warns provides little randomness on correlated
      // inputs.
      std::uint64_t v = 0;
      const std::size_t start = key.size() > 8 ? key.size() - 8 : 0;
      for (std::size_t i = start; i < key.size(); ++i) v = v << 8 | key[i];
      return v % nsets;
    }
    case CacheHashKind::kXorFold: {
      std::uint32_t v = 0;
      std::uint32_t word = 0;
      int n = 0;
      for (std::uint8_t b : key) {
        word = word << 8 | b;
        if (++n == 4) {
          v ^= word;
          word = 0;
          n = 0;
        }
      }
      if (n) v ^= word;
      return v % nsets;
    }
  }
  return 0;
}

void MissClassifier::note_evicted(std::uint64_t h1) {
  if (ever_evicted_.empty()) ever_evicted_.assign(kBloomWords, 0);
  const std::uint64_t h2 = util::mix64(h1) | 1;  // odd stride
  for (std::uint64_t i = 0; i < 4; ++i) {
    const std::uint64_t bit = (h1 + i * h2) % (kBloomWords * 64);
    ever_evicted_[bit >> 6] |= std::uint64_t{1} << (bit & 63);
  }
}

bool MissClassifier::ever_evicted(std::uint64_t h1) const {
  if (ever_evicted_.empty()) return false;
  const std::uint64_t h2 = util::mix64(h1) | 1;
  for (std::uint64_t i = 0; i < 4; ++i) {
    const std::uint64_t bit = (h1 + i * h2) % (kBloomWords * 64);
    if (!(ever_evicted_[bit >> 6] & std::uint64_t{1} << (bit & 63)))
      return false;
  }
  return true;
}

void MissClassifier::move_to_top(Stack::iterator it) {
  // Positions above `it` shift down by one. A top node stays within the top
  // capacity_ either way, so only the boundary iterator can change; a node
  // from below the boundary pushes the boundary node out of the top.
  if (it->top) {
    if (capacity_ > 1 && lru_.size() >= capacity_ && it == boundary_)
      boundary_ = std::prev(it);
  } else {
    boundary_->top = false;
    boundary_ = capacity_ > 1 ? std::prev(boundary_) : it;
    it->top = true;
  }
  lru_.splice(lru_.begin(), lru_, it);
}

void MissClassifier::push_new(HashedKey key) {
  // The new reference enters at the bottom of the stack -- a fresh node
  // while the stack grows, the recycled bottom node (the one falling off
  // the far end) once it is full -- and moves to the top from there.
  if (lru_.size() < max_depth_) {
    Node& n = lru_.emplace_back();
    n.top = lru_.size() <= capacity_;
    if (lru_.size() == capacity_) boundary_ = std::prev(lru_.end());
  } else {
    Node& victim = lru_.back();
    note_evicted(victim.hash);
    pos_.erase(HashedKey{victim.key, victim.hash});
    stack_key_bytes_ -= victim.key.size();
  }
  const auto it = std::prev(lru_.end());
  it->key.assign(key.bytes.begin(), key.bytes.end());
  it->hash = key.hash;
  stack_key_bytes_ += key.bytes.size();
  pos_.try_emplace(HashedKey{it->key, it->hash}, it);
  move_to_top(it);
}

MissClassifier::MissKind MissClassifier::classify_miss(util::BytesView key) {
  const HashedKey hk{key, util::flow_hash64(key)};
  auto* it = pos_.find(hk);
  if (it == nullptr) {
    // Not on the bounded stack. A key that fell off the far end has reuse
    // distance > max_depth >= capacity, so if it was ever evicted this is a
    // capacity miss; a genuinely new key is compulsory.
    const MissKind kind =
        ever_evicted(hk.hash) ? MissKind::kCapacity : MissKind::kCold;
    push_new(hk);
    return kind;
  }
  // Within the top capacity_, a fully-associative cache of the same size
  // would have hit: the miss is due to set conflicts only.
  const MissKind kind =
      (*it)->top ? MissKind::kCollision : MissKind::kCapacity;
  move_to_top(*it);
  return kind;
}

void MissClassifier::record_hit(util::BytesView key) {
  const HashedKey hk{key, util::flow_hash64(key)};
  if (auto* it = pos_.find(hk)) {
    move_to_top(*it);
    return;
  }
  push_new(hk);
}

}  // namespace fbs::core
