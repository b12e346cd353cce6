// Bitsliced DES: kLanes independent blocks per pass (Biham's orthogonal
// representation). Each 64-block group's 64x64 bit matrix of
// [lane][block bit] is transposed so that position j holds bit j of all
// lanes; the permutations (IP, FP, E, P, PC-2 wiring) then cost nothing --
// they are index relabelings -- and each S-box evaluates as a boolean gate
// network over six lane-vector inputs, computing all lanes at once. The
// gate network's word is kWords x 64 bits wide (a GCC/Clang vector type in
// the implementation), so one evaluation covers kLanes = kWords * 64
// blocks: the same boolean circuit, issued as SIMD ops where the target
// has them and synthesized from scalar ops where it does not.
//
// The gate networks are NOT hand-copied from the literature: they are
// derived at compile time from the FIPS kSbox tables in des_tables.hpp by
// a template-recursive positive-Davio decomposition (see des_bitslice.cpp),
// so this implementation shares only the standard's constants with the
// scalar cores and is differentially tested against the bit-at-a-time
// reference DES in tests/support.
//
// Key handling supports mixed keys across lanes: a key's 16 48-bit round
// keys (DesRoundKeys, read straight from the scalar Des that a flow's
// crypto context already holds -- there is no second schedule) expand into
// the engine's 16x48 lane-mask vectors all at once (broadcast, or a
// per-lane transpose), over a contiguous range of lanes (a run of lanes
// that share a key), or one lane at a time (the batch scheduler's
// job-boundary rekey).
//
// The engine decrypts only. CBC decryption is block-parallel even within
// one datagram (the chain input is ciphertext, all of it in hand), so the
// open planner (crypto/batch.hpp) can split a single datagram across
// lanes. CBC encryption chains serially per datagram and lights one lane
// per datagram; no send path forms a burst wide enough to pay for a pass,
// so sealing stays on the scalar cores.
#pragma once

#include <array>
#include <cstdint>

#include "crypto/des.hpp"

namespace fbs::crypto {

class DesBitslice {
 public:
  /// Lanes per 64x64 transpose tile (one machine word of one group).
  static constexpr std::size_t kGroupLanes = 64;
  /// 64-lane groups evaluated together per gate-network pass.
  static constexpr std::size_t kWords = 4;
  static constexpr std::size_t kLanes = kWords * kGroupLanes;

  /// All lanes share one key (~16x48 stores; the single-flow fast path).
  void set_all_lanes(const DesRoundKeys& ks);

  /// Mixed keys, bulk: lane i takes lanes[i] (must all be non-null). Done
  /// with one 64x64 transpose per round per group, whatever the keys --
  /// several cipher passes' worth (22-27 us against a ~4 us pass), so it
  /// pays only when the keys come in many short runs over the lanes.
  void set_lanes(const std::array<const DesRoundKeys*, kLanes>& l);

  /// Key lanes [first, last) with one key, leaving the others as they are.
  /// Costs about one set_lane per 64-lane group the range touches, so a
  /// mixed-key batch whose keys come in a few contiguous runs keys far
  /// cheaper this way than through set_lanes' transposes.
  void set_lane_range(std::size_t first, std::size_t last,
                      const DesRoundKeys& ks);

  /// Rekey a single lane in place (the batch scheduler's incremental
  /// update when a lane's cursor crosses a job boundary).
  void set_lane(std::size_t lane, const DesRoundKeys& ks) {
    set_lane_range(lane, lane + 1, ks);
  }

  /// Decrypt kLanes blocks in place, one per lane; blocks[i] is lane i's
  /// block as loaded by Des::load_be64. Lanes with no real work may carry
  /// anything -- every lane is computed regardless.
  void decrypt(std::uint64_t blocks[kLanes]) const;

  /// In-place 64x64 bit-matrix transpose, bit (63-c) of m[r] <-> bit
  /// (63-r) of m[c]. Exposed for tests and the key-schedule expansion;
  /// decrypt applies it per 64-lane group.
  static void transpose64(std::uint64_t m[kGroupLanes]);

 private:
  /// ks_[round][t * kWords + w]: lane-mask word for round-key bit t+1
  /// (FIPS numbering), group w -- lane (w * 64 + i)'s key bit lives at
  /// word bit 63-i, matching the transposed data layout. Stored as plain
  /// uint64_t so the header stays free of vector-extension types; the
  /// implementation reads each kWords run as one wide word.
  alignas(64) std::array<std::array<std::uint64_t, 48 * kWords>, 16> ks_{};
};

}  // namespace fbs::crypto
