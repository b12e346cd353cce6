// Cross-datagram batch planner for the bitsliced DES engine: CBC decrypt
// (open) only.
//
// The pipeline hands each worker a *burst* of datagrams per ring visit
// (its batched rings); this planner turns that burst into kLanes-wide
// bitslice passes (DesBitslice::kLanes, currently 256). CBC decrypt is
// block-parallel even within one datagram, because every chain input is
// ciphertext already in hand. Sealing has no wide plan: CBC encrypt chains
// serially per datagram, so a pass would light one lane per datagram and
// pays only from about 40 of them, a burst no send path forms.
//
// Layout: job-major. For a plan of P passes, job j (n_j blocks) gets a run
// of k_j consecutive lanes, and pass p decrypts its blocks
// [p * k_j, (p + 1) * k_j): one contiguous span read and one written per
// job and pass, each block chained from the ciphertext block before it (or
// the IV), so no chain state is carried from pass to pass. Each job first
// gets floor(n_j / P) lanes; lanes left over go, one each, to jobs whose
// n_j is not a multiple of P, in lane order. A job that gets no extra lane
// leaves its last n_j mod P blocks -- and a job that finds the lanes gone,
// all of its blocks -- to the spill, which the scalar loop finishes,
// chaining from the block before. Job order on the lanes is free, so jobs
// that share a Des sit side by side, and each lane is keyed once per burst
// and never rekeyed: one broadcast for a one-key burst, one
// set_lane_range per distinct key, or the per-lane transpose when that is
// cheaper. The plan is laid out per job, never per lane: a lane's job and
// block are arithmetic.
//
// Cost model. The planner prices both plans in units of one scalar CBC
// block and takes the cheaper, so a burst is never planned slower than
// the scalar loop (constants measured on a 4-vCPU AVX-512 guest, DESIGN.md
// 5h; one scalar block -- cbc_decrypt_blocks, four blocks a step -- is
// ~42 ns there):
//
//   scalar = total blocks
//   wide   = passes * kPassBlocks            (transposes, gates, spans)
//          + keying                          (once per burst)
//          + spill                           (blocks left to the scalar loop)
//
// with keying kKeyAllBlocks for one key, kKeyGroupBlocks for every 64-lane
// group each key's range of lanes touches, or kKeyLanesBlocks for the
// per-lane transpose, whichever is least. Only two pass counts are worth
// pricing: P = total / kLanes (at least one), which spills at least the
// remainder, and P + 1, which spills only what the lane rounding leaves.
// The scalar plan and the spill both run block_modes' cbc_decrypt_blocks,
// the loop decrypt_into uses.
//
// The planner itself never allocates; the plan lives on the stack and
// outputs land in caller-provided buffers (the zero-alloc steady-state
// test covers the full pipeline path through here).
#pragma once

#include <cstdint>
#include <span>

#include "crypto/des.hpp"
#include "crypto/des_bitslice.hpp"
#include "util/bytes.hpp"

namespace fbs::crypto {

/// One datagram's CBC-decrypt work order. `ciphertext` must be a multiple
/// of 8 bytes; `plaintext` receives the same length and must not overlap
/// it (padding is NOT stripped here -- callers validate PKCS#7 afterwards,
/// exactly as the scalar path does). `des` must be non-null; the wide
/// engine keys its lanes from des->round_keys(), and jobs sharing a Des
/// share a run of lanes under one key.
struct CbcOpenJob {
  const Des* des = nullptr;
  std::uint64_t iv = 0;
  util::BytesView ciphertext;
  std::uint8_t* plaintext = nullptr;
};

class CryptoBatch {
 public:
  static constexpr std::size_t kLanes = DesBitslice::kLanes;

  /// Cost-model constants, in scalar CBC blocks (see the header comment;
  /// EXPERIMENTS.md "Open job-major" derives them). One kLanes-wide open
  /// pass, including the span loads and stores (1.8-2.1 us measured).
  static constexpr std::size_t kPassBlocks = 50;
  /// set_all_lanes: every lane under one key (~0.36 us).
  static constexpr std::size_t kKeyAllBlocks = 10;
  /// set_lane_range, per 64-lane group the range touches (~0.3 us).
  static constexpr std::size_t kKeyGroupBlocks = 9;
  /// set_lanes: the per-lane transpose, whatever the keys (~6 us).
  static constexpr std::size_t kKeyLanesBlocks = 150;

  void open_cbc(std::span<const CbcOpenJob> jobs);

  /// Counters for tests and benches (cumulative; reset_stats to zero).
  struct Stats {
    std::uint64_t bitsliced_blocks = 0;  // blocks through the wide engine
    std::uint64_t scalar_blocks = 0;     // blocks on the scalar fallback
    std::uint64_t passes = 0;            // kLanes-wide engine invocations
    std::uint64_t key_ranges = 0;        // set_lane_range calls
  };
  const Stats& stats() const { return stats_; }
  void reset_stats() { stats_ = Stats{}; }

 private:
  /// open_cbc over at most kLanes jobs: a wide job needs a lane, so this
  /// bounds the plan the stack holds.
  void open_window(std::span<const CbcOpenJob> jobs);
  /// Decrypt `job` from block `first` on with the scalar loop, chaining
  /// from the ciphertext block before it (the whole job, or its spill).
  void open_scalar(const CbcOpenJob& job, std::size_t first);

  DesBitslice engine_;
  Stats stats_;
};

}  // namespace fbs::crypto
