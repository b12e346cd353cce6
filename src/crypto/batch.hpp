// Cross-datagram batch planner for the bitsliced DES engine: CBC decrypt
// (open) only.
//
// The pipeline hands each worker a *burst* of datagrams per ring visit
// (its batched rings); this planner turns that burst into kLanes-wide
// bitslice passes (DesBitslice::kLanes, currently 256). CBC decrypt is
// block-parallel even within one datagram, because every chain input is
// ciphertext already in hand. The jobs' blocks form one global sequence,
// split into kLanes contiguous per-lane runs, so each lane's key changes at
// most when its cursor crosses a job boundary (incremental set_lane) --
// for a single-flow burst there are zero mid-batch rekeys, and an N-flow
// burst costs at most ~N-1 crossings total. Sealing has no wide plan: CBC
// encrypt chains serially per datagram, so a pass would light one lane per
// datagram and pays only from about 40 of them, a burst no send path forms.
//
// Cost model. The planner prices both plans in units of one scalar CBC
// block and takes the cheaper, so a burst is never planned slower than
// the scalar loop (constants measured on a 4-vCPU AVX-512 guest, DESIGN.md
// 5h; one scalar block is ~115 ns there):
//
//   scalar = total blocks
//   wide   = passes * kPassBlocks            (transposes, gates, cursors)
//          + keying_blocks(runs)             (initial lane keys)
//          + rekeys * kKeyGroupBlocks        (mid-run job crossings)
//          + spill                           (leftover run scalar)
//
// Lane keys come in runs of equal keys over the lanes. One run is a
// broadcast (kKeyAllBlocks); a few runs key range by range, each costing
// about one 64-lane group's keying; many runs fall back to the per-lane
// transpose (kKeyLanesBlocks), which by itself costs more than a 192-block
// scalar burst, so a small multi-flow burst must never pay it. A
// leftover shorter than one pass (spill < kPassBlocks) runs scalar rather
// than taking a mostly-empty pass. The scalar plan and the spill both run
// block_modes' cbc_decrypt_blocks, the loop decrypt_into uses.
//
// The planner itself never allocates; all cursors live on the stack and
// outputs land in caller-provided buffers (the zero-alloc steady-state
// test covers the full pipeline path through here).
#pragma once

#include <cstdint>
#include <span>

#include "crypto/des.hpp"
#include "crypto/des_bitslice.hpp"
#include "util/bytes.hpp"

namespace fbs::crypto {

/// One datagram's CBC-decrypt work order. `ciphertext` must be a non-empty
/// multiple of 8 bytes; `plaintext` receives the same length (padding is
/// NOT stripped here -- callers validate PKCS#7 afterwards, exactly as the
/// scalar path does). `des` must be non-null; the wide engine keys its lane
/// from des->round_keys(), and jobs sharing a Des share a lane key.
struct CbcOpenJob {
  const Des* des = nullptr;
  std::uint64_t iv = 0;
  util::BytesView ciphertext;
  std::uint8_t* plaintext = nullptr;
};

class CryptoBatch {
 public:
  static constexpr std::size_t kLanes = DesBitslice::kLanes;

  /// Cost-model constants, in scalar CBC blocks (see the header comment).
  /// One kLanes-wide open pass, including the cursor loads and stores
  /// (measured 6-8 us against ~113 ns per scalar block).
  static constexpr std::size_t kPassBlocks = 64;
  /// set_all_lanes: every lane under one key (~0.9 us).
  static constexpr std::size_t kKeyAllBlocks = 8;
  /// set_lane_range within one 64-lane group, or one set_lane (~0.5 us).
  static constexpr std::size_t kKeyGroupBlocks = 4;
  /// set_lanes: the per-lane transpose, whatever the keys (22-27 us).
  static constexpr std::size_t kKeyLanesBlocks = 220;

  void open_cbc(std::span<const CbcOpenJob> jobs);

  /// Counters for tests and benches (cumulative; reset_stats to zero).
  struct Stats {
    std::uint64_t bitsliced_blocks = 0;  // blocks through the wide engine
    std::uint64_t scalar_blocks = 0;     // blocks on the scalar fallback
    std::uint64_t passes = 0;            // kLanes-wide engine invocations
    std::uint64_t lane_rekeys = 0;       // incremental mid-batch set_lane
  };
  const Stats& stats() const { return stats_; }
  void reset_stats() { stats_ = Stats{}; }

 private:
  /// Decrypt the jobs' global block sequence from block `first` on with
  /// the scalar loop (the whole burst, or the spill after the passes).
  void open_scalar(std::span<const CbcOpenJob> jobs, std::size_t first);
  /// Runs of equal consecutive keys over the lanes.
  static std::size_t key_runs(const Des* const lane_key[kLanes]);
  /// The cost-model price of keying lanes that come in `runs` runs.
  static std::size_t keying_blocks(std::size_t runs);
  /// Key lane i with lane_key[i], the cheapest way for `runs` runs.
  void key_lanes(const Des* const lane_key[kLanes], std::size_t runs);

  DesBitslice engine_;
  Stats stats_;
};

}  // namespace fbs::crypto
