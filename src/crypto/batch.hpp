// Cross-datagram batch scheduler for the bitsliced DES engine.
//
// The pipeline hands each worker a *burst* of datagrams per ring visit
// (PR 7's batched rings); this planner turns that burst into kLanes-wide
// bitslice passes (DesBitslice::kLanes, currently 256):
//
//   open (CBC decrypt): block-parallel even within one datagram, because
//   every chain input is ciphertext already in hand. The jobs' blocks form
//   one global sequence, split into kLanes contiguous per-lane runs, so
//   each lane's key changes at most when its cursor crosses a job boundary
//   (incremental set_lane) -- for a single-flow burst there are zero mid-
//   batch rekeys, and an N-flow burst costs at most ~N-1 crossings total.
//   A small leftover (< kLanes / kWideOverScalar blocks) that would waste
//   a mostly-empty final pass runs on the scalar core instead.
//
//   seal (CBC encrypt): chains serially within a datagram, so lanes map
//   one job per lane and each pass peels the next block of up to kLanes
//   datagrams (PKCS#7 tail blocks materialized on the fly).
//
// Small bursts run on the per-job scalar Des cores instead: the per-group
// transposes plus key loading only amortize with enough lanes lit. For open
// that is a block count (kScalarThresholdBlocks), since one datagram's
// blocks spread across lanes; for seal it is a job count (kSealMinJobs),
// since each job lights one lane however long it is.
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

/// One datagram's CBC-encrypt work order. `plaintext` is the raw body (any
/// length, including 0); `ciphertext` receives padded_size(plaintext.size())
/// bytes of PKCS#7-padded CBC output.
struct CbcSealJob {
  const Des* des = nullptr;
  std::uint64_t iv = 0;
  util::BytesView plaintext;
  std::uint8_t* ciphertext = nullptr;
};

class CryptoBatch {
 public:
  static constexpr std::size_t kLanes = DesBitslice::kLanes;

  /// Open bursts totalling fewer CBC blocks than this run the scalar cores: a
  /// bitslice pass costs two transposes + key setup regardless of how many
  /// lanes carry real work, and measurement puts break-even near half a
  /// batch of lanes (see DESIGN.md 5h).
  static constexpr std::size_t kScalarThresholdBlocks = 32;

  /// Seal groups of fewer jobs than this run the scalar cores: every pass
  /// costs a full kLanes-wide evaluation, so seal pays only with enough
  /// lit lanes (break-even measured between 32 and 48 jobs of 1408 B, see
  /// DESIGN.md 5h). One 1408 B job on the wide engine is 177 passes with
  /// one lane lit, ~35x slower than scalar.
  static constexpr std::size_t kSealMinJobs = 40;

  /// PKCS#7 always pads, so sealed output is the next full block up.
  static constexpr std::size_t padded_size(std::size_t n) {
    return n / Des::kBlockSize * Des::kBlockSize + Des::kBlockSize;
  }

  void open_cbc(std::span<const CbcOpenJob> jobs);
  void seal_cbc(std::span<const CbcSealJob> jobs);

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
  void open_scalar(const CbcOpenJob& job);
  void seal_scalar(const CbcSealJob& job);
  void seal_group(std::span<const CbcSealJob> jobs);

  DesBitslice engine_;
  Stats stats_;
};

}  // namespace fbs::crypto
