#include "fuzz/driver.hpp"

#include <algorithm>
#include <array>
#include <unordered_set>

#include "util/rng.hpp"

namespace fbs::fuzz {

namespace {

/// xoshiro256**: fast, well-distributed, and not shared with any library
/// component, so driver schedules never perturb (or depend on) protocol
/// RNG draws. Seeded through SplitMix64 per the generator's reference.
class Xoshiro256 {
 public:
  explicit Xoshiro256(std::uint64_t seed) {
    util::SplitMix64 sm(seed);
    for (auto& s : state_) s = sm.next_u64();
  }

  std::uint64_t next() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform-ish in [0, bound); bound >= 1.
  std::uint64_t below(std::uint64_t bound) { return next() % bound; }

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }
  std::array<std::uint64_t, 4> state_;
};

constexpr std::array<std::uint8_t, 14> kInterestingBytes = {
    0x00, 0x01, 0x02, 0x04, 0x08, 0x10, 0x20,
    0x40, 0x45, 0x50, 0x7F, 0x80, 0xFE, 0xFF};
constexpr std::array<std::uint16_t, 12> kInterestingU16 = {
    0, 1, 7, 8, 18, 20, 0x00FF, 0x0100, 0x1FFF, 0x7FFF, 0x8000, 0xFFFF};
constexpr std::array<std::uint32_t, 8> kInterestingU32 = {
    0, 1, 0xFFFF, 0x10000, 0x10001, 0x7FFFFFFF, 0x80000000, 0xFFFFFFFF};

void write_be(util::Bytes& b, std::size_t pos, std::uint64_t v,
              std::size_t n) {
  for (std::size_t i = 0; i < n && pos + i < b.size(); ++i)
    b[pos + i] = static_cast<std::uint8_t>(v >> (8 * (n - 1 - i)));
}

/// One mutation step. Several are length-field-shaped on purpose: wire
/// decoders die on length disagreements, so nudged counters, interesting
/// 16/32-bit writes at arbitrary offsets, and zero-filled spans pull far
/// more weight than uniform noise.
void mutate(util::Bytes& b, Xoshiro256& rng,
            const std::vector<util::Bytes>& pool) {
  if (b.empty()) {
    b.push_back(static_cast<std::uint8_t>(rng.next()));
    return;
  }
  const std::size_t pos = rng.below(b.size());
  switch (rng.below(12)) {
    case 0:  // bit flip
      b[pos] ^= static_cast<std::uint8_t>(1u << rng.below(8));
      break;
    case 1:  // random byte
      b[pos] = static_cast<std::uint8_t>(rng.next());
      break;
    case 2:  // interesting byte
      b[pos] = kInterestingBytes[rng.below(kInterestingBytes.size())];
      break;
    case 3:  // interesting big-endian u16
      write_be(b, pos, kInterestingU16[rng.below(kInterestingU16.size())], 2);
      break;
    case 4:  // interesting big-endian u32
      write_be(b, pos, kInterestingU32[rng.below(kInterestingU32.size())], 4);
      break;
    case 5:  // nudge a (possible) length counter
      b[pos] = static_cast<std::uint8_t>(b[pos] + (rng.next() & 1 ? 1 : -1));
      break;
    case 6:  // truncate
      b.resize(rng.below(b.size() + 1));
      break;
    case 7: {  // extend with random tail
      const std::size_t n = 1 + rng.below(16);
      for (std::size_t i = 0; i < n; ++i)
        b.push_back(static_cast<std::uint8_t>(rng.next()));
      break;
    }
    case 8: {  // duplicate a span
      const std::size_t n = 1 + rng.below(std::min<std::size_t>(
                                    16, b.size() - pos));
      b.insert(b.begin() + static_cast<std::ptrdiff_t>(pos),
               b.begin() + static_cast<std::ptrdiff_t>(pos),
               b.begin() + static_cast<std::ptrdiff_t>(pos + n));
      break;
    }
    case 9: {  // remove a span
      const std::size_t n = 1 + rng.below(std::min<std::size_t>(
                                    16, b.size() - pos));
      b.erase(b.begin() + static_cast<std::ptrdiff_t>(pos),
              b.begin() + static_cast<std::ptrdiff_t>(pos + n));
      break;
    }
    case 10: {  // zero-fill a span (constant-tag / cleared-field shapes)
      const std::size_t n = 1 + rng.below(std::min<std::size_t>(
                                    24, b.size() - pos));
      std::fill_n(b.begin() + static_cast<std::ptrdiff_t>(pos), n, 0);
      break;
    }
    default: {  // splice a tail from another pool member
      const util::Bytes& other = pool[rng.below(pool.size())];
      if (other.empty()) break;
      const std::size_t cut = rng.below(other.size());
      b.resize(pos);
      b.insert(b.end(), other.begin() + static_cast<std::ptrdiff_t>(cut),
               other.end());
      break;
    }
  }
}

std::uint64_t fnv1a(util::BytesView b) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const std::uint8_t byte : b) {
    h ^= byte;
    h *= 0x100000001B3ULL;
  }
  return h;
}

}  // namespace

DriverStats run_target(const FuzzTarget& target,
                       const DriverOptions& options) {
  DriverStats stats;
  Xoshiro256 rng(options.seed ^ fnv1a(util::to_bytes(target.name)));

  if (target.reset) target.reset();
  std::vector<util::Bytes> pool = target.seeds();
  pool.insert(pool.end(), options.extra_seeds.begin(),
              options.extra_seeds.end());
  if (pool.empty()) pool.push_back({});

  std::unordered_set<std::uint64_t> seen;
  for (const util::Bytes& input : pool) {
    ++stats.executions;
    if (target.run(input)) ++stats.accepted;
    seen.insert(fnv1a(input));
  }

  for (std::uint64_t i = 0; i < options.iterations; ++i) {
    util::Bytes input = rng.next() % 16 == 0
                            ? util::Bytes{}
                            : pool[rng.below(pool.size())];
    const std::uint64_t steps = 1 + rng.below(4);
    for (std::uint64_t s = 0; s < steps; ++s) mutate(input, rng, pool);
    if (input.size() > options.max_input) input.resize(options.max_input);

    ++stats.executions;
    const bool accepted = target.run(input);
    if (accepted) {
      ++stats.accepted;
      // Accepted mutants are new valid-looking structures: keep them as
      // future mutation bases (bounded, deduplicated).
      if (pool.size() < options.pool_cap && seen.insert(fnv1a(input)).second)
        pool.push_back(std::move(input));
    }
  }
  stats.pool_size = pool.size();
  return stats;
}

}  // namespace fbs::fuzz
