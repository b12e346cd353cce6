#include "crypto/des_bitslice.hpp"

#include <algorithm>
#include <array>
#include <utility>

#include "crypto/des.hpp"
#include "crypto/des_tables.hpp"

namespace fbs::crypto {
namespace {

using des_tables::kExpansion;
using des_tables::kFp;
using des_tables::kIp;
using des_tables::kPbox;
using des_tables::kSbox;

/// The gate network's word: kWords 64-lane groups evaluated per boolean op.
/// GCC/Clang lower &, |, ^, ~ on this type to one SIMD op where the target
/// has 256-bit registers (AVX2) and to kWords scalar ops otherwise, so the
/// same source covers both. may_alias lets decrypt() view the uint64_t key
/// rows in ks_ as Words without strict-aliasing UB.
typedef std::uint64_t Word
    __attribute__((vector_size(sizeof(std::uint64_t) * DesBitslice::kWords),
                   may_alias));

// ---------------------------------------------------------------------------
// S-boxes as gate networks, derived from the FIPS tables at compile time.
//
// Each S-box output bit is a 6-variable boolean function; its 64-entry truth
// table packs into one uint64_t (bit v = output for input v, where v's MSB
// is the standard's input bit 1). The evaluator below decomposes the truth
// table recursively with the positive Davio expansion
//
//     f(x, rest) = f0(rest) ^ (x & (f0 ^ f1)(rest))
//
// plus constant/absorption foldings (f0 == f1, a half that is all-zero or
// all-one, complement halves -> XOR). Because sub-tables are template
// arguments, identical subfunctions across the 32 output bits instantiate
// once and the compiler's CSE shares them; the result is a flat ~60-op
// gate network per S-box with no tables, no branches and full kLanes-wide
// ILP.
// ---------------------------------------------------------------------------

/// Truth table for S-box `s`, output bit `o` (0 = the 4-bit value's MSB).
constexpr std::uint64_t sbox_tt(int s, int o) {
  std::uint64_t tt = 0;
  for (int v = 0; v < 64; ++v) {
    // FIPS: input bits 1 and 6 select the row, bits 2..5 the column.
    const int row = ((v >> 4) & 2) | (v & 1);
    const int col = (v >> 1) & 0xF;
    if ((kSbox[s][row * 16 + col] >> (3 - o)) & 1) tt |= 1ull << v;
  }
  return tt;
}

/// All-ones truth table for a V-variable function (V <= 6).
template <unsigned V>
inline constexpr std::uint64_t kTtFull =
    V >= 6 ? ~0ull : (1ull << (1u << V)) - 1;

/// Relabel `tt`'s variables so that split level j consumes old variable
/// order[j] (0 = the standard's input bit 1, orders packed 3 bits per
/// level, level 0 in bits 17..15). The evaluator then reads its inputs
/// through the same order and computes the original function.
constexpr std::uint64_t permute_tt(std::uint64_t tt, unsigned order) {
  std::uint64_t out = 0;
  for (unsigned v = 0; v < 64; ++v) {
    unsigned old = 0;
    for (unsigned j = 0; j < 6; ++j) {
      old |= ((v >> (5 - j)) & 1u) << (5 - ((order >> (15 - 3 * j)) & 7u));
    }
    if ((tt >> old) & 1) out |= 1ull << v;
  }
  return out;
}

/// Positions of the 64-entry table where v's index bit b is set.
constexpr std::uint64_t var_mask(unsigned b) {
  constexpr std::uint64_t masks[6] = {
      0xAAAAAAAAAAAAAAAAull, 0xCCCCCCCCCCCCCCCCull, 0xF0F0F0F0F0F0F0F0ull,
      0xFF00FF00FF00FF00ull, 0xFFFF0000FFFF0000ull, 0xFFFFFFFF00000000ull};
  return masks[b];
}

/// Cofactors in canonical 64-entry form: positions of already-removed
/// variables carry duplicated values, so two calls computing the same
/// logical subfunction produce bit-identical tables -- which is what lets
/// the cost model below recognize shared nodes by table equality, the same
/// sharing the compiler's CSE performs on identical Davio instantiations.
constexpr std::uint64_t canon_lo(std::uint64_t tt, unsigned b) {
  const std::uint64_t raw = tt & ~var_mask(b);
  return raw | (raw << (1u << b));
}
constexpr std::uint64_t canon_hi(std::uint64_t tt, unsigned b) {
  const std::uint64_t raw = (tt & var_mask(b)) >> (1u << b);
  return raw | (raw << (1u << b));
}

/// Davio tree cost under split order `order` (packed 3 bits per level):
/// an op for every &, |, ^, ~ the evaluator would emit, with NO credit for
/// node sharing. (A sharing-aware DAG metric was tried and measured
/// slower: shared subtrees serialize the dependency graph, while the tree
/// metric implicitly rewards orders whose outputs stay independent and
/// keep all lanes' ILP available.) O(1) cofactor math per node -- no
/// permuted table is ever built -- which is what makes the exhaustive
/// order search fit the compile-time budget.
constexpr long tree_cost(std::uint64_t tt, unsigned order, unsigned level) {
  if (tt == 0 || tt == ~0ull) return 0;
  if (level == 5) return (tt & 1) == 0 ? 0 : 1;  // x : ~x
  const unsigned b = 5 - ((order >> (15 - 3 * level)) & 7u);
  const std::uint64_t lo = canon_lo(tt, b);
  const std::uint64_t hi = canon_hi(tt, b);
  if (lo == hi) return tree_cost(lo, order, level + 1);
  if (lo == 0 && hi == ~0ull) return 0;
  if (lo == ~0ull && hi == 0) return 1;
  if (lo == 0) return 1 + tree_cost(hi, order, level + 1);
  if (hi == 0) return 2 + tree_cost(lo, order, level + 1);
  if (lo == ~0ull) return 2 + tree_cost(hi, order, level + 1);
  if (hi == ~0ull) return 1 + tree_cost(lo, order, level + 1);
  if ((lo ^ hi) == ~0ull) return 1 + tree_cost(lo, order, level + 1);
  return 2 + tree_cost(lo, order, level + 1) +
         tree_cost(lo ^ hi, order, level + 1);
}

/// The decomposition order matters a lot: a poor first split can double
/// the network. Search all 720 orders for S-box `s` (one order shared by
/// its four outputs, so identical subfunctions stay shareable) for the
/// minimum total tree cost. Runs once per S-box, at compile time; kept
/// integer-only and split into eight evaluations to stay inside the
/// compiler's per-constant constexpr budget.
constexpr unsigned best_order(int s) {
  const std::uint64_t tts[4] = {sbox_tt(s, 0), sbox_tt(s, 1), sbox_tt(s, 2),
                                sbox_tt(s, 3)};
  unsigned perm[6] = {0, 1, 2, 3, 4, 5};
  unsigned best = 0;
  long best_cost = -1;
  for (;;) {
    unsigned packed = 0;
    for (unsigned j = 0; j < 6; ++j) packed |= perm[j] << (15 - 3 * j);
    long cost = 0;
    for (int o = 0; o < 4; ++o) cost += tree_cost(tts[o], packed, 0);
    if (best_cost < 0 || cost < best_cost) {
      best_cost = cost;
      best = packed;
    }
    // next_permutation, hand-rolled over the plain array.
    int i = 4;
    while (i >= 0 && perm[i] >= perm[i + 1]) --i;
    if (i < 0) break;
    int k = 5;
    while (perm[k] <= perm[static_cast<unsigned>(i)]) --k;
    unsigned t = perm[static_cast<unsigned>(i)];
    perm[static_cast<unsigned>(i)] = perm[k];
    perm[k] = t;
    for (int a = i + 1, b = 5; a < b; ++a, --b) {
      t = perm[a];
      perm[a] = perm[b];
      perm[b] = t;
    }
  }
  return best;
}

inline constexpr unsigned kSboxOrder[8] = {
    best_order(0), best_order(1), best_order(2), best_order(3),
    best_order(4), best_order(5), best_order(6), best_order(7)};

/// Split level j's input index for S-box s.
constexpr unsigned order_at(int s, int j) {
  return (kSboxOrder[s] >> (15 - 3 * j)) & 7u;
}

/// Evaluate the V-variable function with truth table TT over lane vectors
/// x[0..V-1], where x[0] is the variable indexing TT's top half.
template <std::uint64_t TT, unsigned V>
struct Davio {
  static inline Word eval(const Word* x) {
    if constexpr (TT == 0) {
      return Word{};
    } else if constexpr (TT == kTtFull<V>) {
      return ~Word{};
    } else if constexpr (V == 1) {
      // Constants handled above; the two non-constant 1-var functions:
      return TT == 2 ? x[0] : ~x[0];
    } else {
      constexpr std::uint64_t kHalf = kTtFull<V - 1>;
      constexpr std::uint64_t lo = TT & kHalf;          // x[0] == 0 half
      constexpr std::uint64_t hi = (TT >> (1u << (V - 1))) & kHalf;
      if constexpr (lo == hi) {
        return Davio<lo, V - 1>::eval(x + 1);
      } else if constexpr (lo == 0 && hi == kHalf) {
        return x[0];
      } else if constexpr (lo == kHalf && hi == 0) {
        return ~x[0];
      } else if constexpr (lo == 0) {
        return x[0] & Davio<hi, V - 1>::eval(x + 1);
      } else if constexpr (hi == 0) {
        return ~x[0] & Davio<lo, V - 1>::eval(x + 1);
      } else if constexpr (lo == kHalf) {
        return ~x[0] | Davio<hi, V - 1>::eval(x + 1);
      } else if constexpr (hi == kHalf) {
        return x[0] | Davio<lo, V - 1>::eval(x + 1);
      } else if constexpr ((lo ^ hi) == kHalf) {
        return x[0] ^ Davio<lo, V - 1>::eval(x + 1);
      } else {
        return Davio<lo, V - 1>::eval(x + 1) ^
               (x[0] & Davio<lo ^ hi, V - 1>::eval(x + 1));
      }
    }
  }
};

/// Inverse of the P permutation: S-box output bit t+1 lands at L position
/// kPboxInv[t], letting the round XOR f(R) straight into L with no
/// intermediate 32-vector staging.
constexpr std::array<std::uint8_t, 32> pbox_inv() {
  std::array<std::uint8_t, 32> inv{};
  for (int i = 0; i < 32; ++i) inv[kPbox[i] - 1] = static_cast<std::uint8_t>(i);
  return inv;
}
inline constexpr std::array<std::uint8_t, 32> kPboxInv = pbox_inv();

/// One round's full S-box layer: E expansion and P are index wiring only.
/// r[] holds R's 32 bit-vectors, rk the round's 48 key vectors; the S-box
/// outputs are XOR'ed into l[] through the inverse P-box, so after this
/// l holds L ^ f(R, rk).
template <std::size_t... S>
inline void sbox_layer(Word* __restrict l, const Word* __restrict r,
                       const Word* __restrict rk, std::index_sequence<S...>) {
  (...,
   [&] {
     // Feed the inputs through this S-box's optimized split order; the
     // truth tables are relabeled to match, so the function is unchanged.
     Word x[6];
     for (int k = 0; k < 6; ++k) {
       const unsigned in = order_at(S, k);
       x[k] = r[kExpansion[6 * S + in] - 1] ^ rk[6 * S + in];
     }
     l[kPboxInv[4 * S + 0]] ^=
         Davio<permute_tt(sbox_tt(S, 0), kSboxOrder[S]), 6>::eval(x);
     l[kPboxInv[4 * S + 1]] ^=
         Davio<permute_tt(sbox_tt(S, 1), kSboxOrder[S]), 6>::eval(x);
     l[kPboxInv[4 * S + 2]] ^=
         Davio<permute_tt(sbox_tt(S, 2), kSboxOrder[S]), 6>::eval(x);
     l[kPboxInv[4 * S + 3]] ^=
         Davio<permute_tt(sbox_tt(S, 3), kSboxOrder[S]), 6>::eval(x);
   }());
}

/// kWords 64x64 tiles at once, tile w's row k being word w of m[k]:
/// Hacker's Delight 7-3 in place -- swap progressively smaller off-diagonal
/// sub-blocks, three nested log-steps -- with every step one Word op
/// covering all the tiles.
inline void transpose_tiles(Word m[DesBitslice::kGroupLanes]) {
  std::uint64_t mask = 0x00000000FFFFFFFFull;
  for (unsigned j = 32; j != 0; j >>= 1, mask ^= mask << j) {
    for (unsigned k = 0; k < 64; k = ((k | j) + 1) & ~j) {
      const Word t = (m[k] ^ (m[k | j] >> j)) & mask;
      m[k] ^= t;
      m[k | j] ^= t << j;
    }
  }
}

/// Group w's 64 blocks, one per lane, as the rows of tile w, and back.
inline void load_tiles(const std::uint64_t* blocks,
                       Word m[DesBitslice::kGroupLanes]) {
  for (std::size_t k = 0; k < DesBitslice::kGroupLanes; ++k)
    for (std::size_t w = 0; w < DesBitslice::kWords; ++w)
      m[k][w] = blocks[w * DesBitslice::kGroupLanes + k];
}

inline void store_tiles(const Word m[DesBitslice::kGroupLanes],
                        std::uint64_t* blocks) {
  for (std::size_t k = 0; k < DesBitslice::kGroupLanes; ++k)
    for (std::size_t w = 0; w < DesBitslice::kWords; ++w)
      blocks[w * DesBitslice::kGroupLanes + k] = m[k][w];
}

}  // namespace

void DesBitslice::transpose(std::uint64_t m[kLanes]) {
  Word tiles[kGroupLanes];
  load_tiles(m, tiles);
  transpose_tiles(tiles);
  store_tiles(tiles, m);
}

void DesBitslice::set_all_lanes(const DesRoundKeys& ks) {
  for (int round = 0; round < 16; ++round) {
    const std::uint64_t sk = ks[static_cast<std::size_t>(round)];
    Word* dst =
        reinterpret_cast<Word*>(ks_[static_cast<std::size_t>(round)].data());
    for (std::size_t t = 0; t < 48; ++t)
      dst[t] = Word{} | (0 - ((sk >> (47 - t)) & 1));
  }
}

void DesBitslice::set_lanes(
    const std::array<const DesRoundKeys*, kLanes>& lanes) {
  // Per round: gather every lane's 48-bit subkey left-aligned as its
  // group's tile row, transpose the tiles, and the first 48 rows are
  // exactly the round's lane-mask Words.
  for (std::size_t round = 0; round < 16; ++round) {
    Word m[kGroupLanes];
    for (std::size_t k = 0; k < kGroupLanes; ++k)
      for (std::size_t w = 0; w < kWords; ++w)
        m[k][w] = (*lanes[w * kGroupLanes + k])[round] << 16;
    transpose_tiles(m);
    Word* dst = reinterpret_cast<Word*>(ks_[round].data());
    for (std::size_t t = 0; t < 48; ++t) dst[t] = m[t];
  }
}

void DesBitslice::set_lane_range(std::size_t first, std::size_t last,
                                 const DesRoundKeys& ks) {
  for (std::size_t w = first / kGroupLanes; w * kGroupLanes < last; ++w) {
    // The group's lanes inside [first, last), lane w*64+i at bit 63-i.
    const std::size_t lo = std::max(first, w * kGroupLanes) - w * kGroupLanes;
    const std::size_t hi = std::min(last, (w + 1) * kGroupLanes) -
                           w * kGroupLanes;
    const std::uint64_t below = hi == kGroupLanes ? 0 : ~0ull >> hi;
    const std::uint64_t mask = (~0ull >> lo) & ~below;
    for (int round = 0; round < 16; ++round) {
      const std::uint64_t sk = ks[static_cast<std::size_t>(round)];
      auto& dst = ks_[static_cast<std::size_t>(round)];
      for (std::size_t t = 0; t < 48; ++t) {
        const std::uint64_t bit = 0 - ((sk >> (47 - t)) & 1);
        std::uint64_t& word = dst[t * kWords + w];
        word = (word & ~mask) | (bit & mask);
      }
    }
  }
}

void DesBitslice::decrypt(std::uint64_t blocks[kLanes]) const {
  // To sliced form, all groups at once: after the transpose, Word j is the
  // standard's input bit j+1 across every lane (lane w*64+i at bit 63-i of
  // word w).
  Word m[kGroupLanes];
  load_tiles(blocks, m);
  transpose_tiles(m);

  // IP, then split into L/R bit-vector banks. All 16 rounds are unrolled
  // with the Feistel swap done by alternating which bank a round XORs into,
  // so there is no pointer juggling and no copying of 32-word halves.
  Word bank_l[32];
  Word bank_r[32];
  for (std::size_t i = 0; i < 32; ++i) {
    bank_l[i] = m[kIp[i] - 1];
    bank_r[i] = m[kIp[32 + i] - 1];
  }

  // Round R (0-based): l ^= f(r, key) turns l into R_{R+1} while the other
  // bank already holds L_{R+1}; parity decides which bank plays which role.
  // ks_ rows are [t * kWords + w], i.e. exactly 48 consecutive Words.
  // Decryption is the same network with the round keys in reverse order.
  const auto round = [&](int index, Word* l, const Word* r) {
    const auto& row = ks_[static_cast<std::size_t>(15 - index)];
    sbox_layer(l, r, reinterpret_cast<const Word*>(row.data()),
               std::make_index_sequence<8>{});
  };
  for (int index = 0; index < 16; index += 2) {
    round(index, bank_l, bank_r);
    round(index + 1, bank_r, bank_l);
  }

  // After round 15 (odd) bank_r holds R16 and bank_l holds L16; preoutput
  // is R16 L16 -- positions 1..32 read bank_r, 33..64 read bank_l -- folded
  // straight into FP, then transposed back to one block per lane.
  for (std::size_t j = 0; j < 64; ++j)
    m[j] = kFp[j] <= 32 ? bank_r[kFp[j] - 1] : bank_l[kFp[j] - 33];
  transpose_tiles(m);
  store_tiles(m, blocks);
}

}  // namespace fbs::crypto
