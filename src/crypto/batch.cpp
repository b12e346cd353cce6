#include "crypto/batch.hpp"

#include <algorithm>
#include <array>

#include "crypto/block_modes.hpp"

namespace fbs::crypto {
namespace {

std::size_t open_blocks(const CbcOpenJob& job) {
  return job.ciphertext.size() / Des::kBlockSize;
}

}  // namespace

void CryptoBatch::open_cbc(std::span<const CbcOpenJob> jobs) {
  std::size_t total = 0;
  for (const CbcOpenJob& job : jobs) total += open_blocks(job);
  if (total == 0) return;

  // A non-multiple-of-kLanes total would spend a whole extra pass on a
  // mostly-empty lane set. A leftover the scalar core finishes faster than
  // one wide pass is peeled off the end of the global sequence and run
  // scalar instead, keeping every wide pass full.
  std::size_t spill = total % kLanes;
  if (spill >= kPassBlocks) spill = 0;
  const std::size_t wide_total = total - spill;
  const std::size_t q = wide_total / kLanes;
  const std::size_t rem = wide_total % kLanes;
  const std::size_t passes = q + (rem != 0 ? 1 : 0);
  // Each key change along the wide part of the sequence either starts a
  // run of lanes or rekeys a lane mid-run, so the keying costs at least
  // kKeyAllBlocks plus kKeyGroupBlocks per change (or the transpose). When
  // even that bound loses -- every burst under kPassBlocks + kKeyAllBlocks
  // blocks, and small multi-flow ones -- skip laying out the lanes.
  std::size_t changes = 0;
  const Des* prev = nullptr;
  for (std::size_t j = 0, seen = 0; j < jobs.size() && seen < wide_total;
       ++j) {
    if (open_blocks(jobs[j]) == 0) continue;
    changes += prev != nullptr && jobs[j].des != prev;
    prev = jobs[j].des;
    seen += open_blocks(jobs[j]);
  }
  if (passes * kPassBlocks +
          std::min(kKeyAllBlocks + changes * kKeyGroupBlocks,
                   kKeyLanesBlocks) +
          spill >=
      total) {
    open_scalar(jobs, 0);
    return;
  }

  // CBC decrypt is block-parallel across (and within) datagrams: treat the
  // burst as one job-major global block sequence and give each lane a
  // contiguous run, so a lane's key only changes when its cursor crosses a
  // job boundary. Every lit lane advances one block per pass, so the lane
  // state is a few flat arrays the pass loop streams through, and the job
  // crossings are events at known passes; the passes in between touch no
  // job metadata at all.
  constexpr std::size_t kNever = ~std::size_t{0};
  // A lane reads its block of pass p at ct[lane] + 8p and writes it at
  // pt[lane] + 8p: addresses biased back by the pass at which the lane
  // entered its job, so the pass loop only reads them.
  std::uintptr_t ct[kLanes];
  std::uintptr_t pt[kLanes];
  std::uint64_t chain[kLanes];  // CBC chain into the next block
  std::size_t job[kLanes];      // index into jobs
  // The pass at which the lane leaves its job for the next one, or kNever
  // when its run ends first.
  std::size_t job_end[kLanes];
  const Des* lane_key[kLanes];  // each lane's key at the first pass
  std::size_t rekeys = 0;       // mid-run key changes the passes will make
  // Lanes [0, rem) run q + 1 blocks, the rest q.
  const auto run_blocks = [&](std::size_t lane) {
    return q + (lane < rem ? 1 : 0);
  };
  {
    // Invariant between lanes: (j, b) points at an unconsumed block.
    std::size_t j = 0;
    std::size_t b = 0;
    const auto normalize = [&] {
      while (j < jobs.size() && b >= open_blocks(jobs[j])) {
        ++j;
        b = 0;
      }
    };
    normalize();
    for (std::size_t lane = 0; lane < kLanes; ++lane) {
      std::size_t len = run_blocks(lane);
      if (len == 0) {
        // Unlit lanes (only ever the last ones) extend the previous run.
        lane_key[lane] = lane_key[lane - 1];
        job_end[lane] = kNever;
        continue;
      }
      const CbcOpenJob& first = jobs[j];
      job[lane] = j;
      ct[lane] = reinterpret_cast<std::uintptr_t>(first.ciphertext.data()) +
                 Des::kBlockSize * b;
      pt[lane] = reinterpret_cast<std::uintptr_t>(first.plaintext) +
                 Des::kBlockSize * b;
      chain[lane] = b == 0 ? first.iv
                           : Des::load_be64(first.ciphertext.data() +
                                            Des::kBlockSize * (b - 1));
      const std::size_t left_in_job = open_blocks(first) - b;
      job_end[lane] = left_in_job < len ? left_in_job : kNever;
      lane_key[lane] = first.des;
      const Des* key = first.des;
      while (len > 0) {
        const std::size_t step = std::min(len, open_blocks(jobs[j]) - b);
        b += step;
        len -= step;
        normalize();
        if (len > 0 && jobs[j].des != key) {
          key = jobs[j].des;
          ++rekeys;
        }
      }
    }
  }

  // Price the wide plan -- passes, lane keying, mid-run rekeys and the
  // scalar spill -- against the scalar loop over the whole burst. Keying
  // is what makes a small multi-flow burst lose: every run of lanes under
  // one key costs about one range keying, the transpose a flat price.
  const std::size_t runs = key_runs(lane_key);
  if (passes * kPassBlocks + keying_blocks(runs) + rekeys * kKeyGroupBlocks +
          spill >=
      total) {
    open_scalar(jobs, 0);
    return;
  }
  key_lanes(lane_key, runs);

  std::size_t next_event = *std::min_element(job_end, job_end + kLanes);
  for (std::size_t pass = 0; pass < passes; ++pass) {
    // Every lane is lit but in a short last pass, where lanes [0, rem) are.
    const std::size_t lit = pass < q ? kLanes : rem;
    std::uint64_t blocks[kLanes];
    std::uint64_t cin[kLanes];
    std::fill(blocks + lit, blocks + kLanes, 0);
    const std::uintptr_t off = Des::kBlockSize * pass;
    for (std::size_t lane = 0; lane < lit; ++lane) {
      blocks[lane] = cin[lane] = Des::load_be64(
          reinterpret_cast<const std::uint8_t*>(ct[lane] + off));
    }
    engine_.decrypt(blocks);
    ++stats_.passes;
    for (std::size_t lane = 0; lane < lit; ++lane) {
      Des::store_be64(blocks[lane] ^ chain[lane],
                      reinterpret_cast<std::uint8_t*>(pt[lane] + off));
      chain[lane] = cin[lane];
    }
    if (pass + 1 != next_event) continue;
    // Lanes whose job ended with this pass move on to the next non-empty
    // job, rekeying if it is another flow's.
    for (std::size_t lane = 0; lane < kLanes; ++lane) {
      if (job_end[lane] != pass + 1) continue;
      std::size_t j = job[lane] + 1;
      while (open_blocks(jobs[j]) == 0) ++j;
      const CbcOpenJob& next = jobs[j];
      job[lane] = j;
      const std::size_t entered = pass + 1;
      const std::uintptr_t bias = Des::kBlockSize * entered;
      ct[lane] =
          reinterpret_cast<std::uintptr_t>(next.ciphertext.data()) - bias;
      pt[lane] = reinterpret_cast<std::uintptr_t>(next.plaintext) - bias;
      chain[lane] = next.iv;
      const std::size_t leaves = entered + open_blocks(next);
      job_end[lane] = leaves < run_blocks(lane) ? leaves : kNever;
      if (next.des != lane_key[lane]) {
        engine_.set_lane(lane, next.des->round_keys());
        lane_key[lane] = next.des;
        ++stats_.lane_rekeys;
      }
    }
    next_event = *std::min_element(job_end, job_end + kLanes);
  }
  stats_.bitsliced_blocks += wide_total;
  // The last `spill` blocks of the global sequence run scalar.
  if (spill != 0) open_scalar(jobs, wide_total);
}

std::size_t CryptoBatch::key_runs(const Des* const lane_key[kLanes]) {
  std::size_t runs = 1;
  for (std::size_t lane = 1; lane < kLanes; ++lane)
    runs += lane_key[lane] != lane_key[lane - 1];
  return runs;
}

std::size_t CryptoBatch::keying_blocks(std::size_t runs) {
  if (runs == 1) return kKeyAllBlocks;
  return std::min(kKeyLanesBlocks,
                  (runs + DesBitslice::kWords - 1) * kKeyGroupBlocks);
}

void CryptoBatch::key_lanes(const Des* const lane_key[kLanes],
                            std::size_t runs) {
  if (runs == 1) {
    engine_.set_all_lanes(lane_key[0]->round_keys());
    return;
  }
  if (keying_blocks(runs) < kKeyLanesBlocks) {
    std::size_t first = 0;
    for (std::size_t lane = 1; lane <= kLanes; ++lane) {
      if (lane < kLanes && lane_key[lane] == lane_key[first]) continue;
      engine_.set_lane_range(first, lane, lane_key[first]->round_keys());
      first = lane;
    }
    return;
  }
  std::array<const DesRoundKeys*, kLanes> ptrs;
  for (std::size_t lane = 0; lane < kLanes; ++lane)
    ptrs[lane] = &lane_key[lane]->round_keys();
  engine_.set_lanes(ptrs);
}

void CryptoBatch::open_scalar(std::span<const CbcOpenJob> jobs,
                              std::size_t first) {
  // A start inside a job chains from the ciphertext block before it,
  // exactly like a mid-job lane run.
  for (const CbcOpenJob& job : jobs) {
    const std::size_t n = open_blocks(job);
    if (first >= n) {
      first -= n;
      continue;
    }
    const std::uint8_t* ct = job.ciphertext.data() + Des::kBlockSize * first;
    cbc_decrypt_blocks(
        *job.des, first == 0 ? job.iv : Des::load_be64(ct - Des::kBlockSize),
        ct, job.plaintext + Des::kBlockSize * first, n - first);
    stats_.scalar_blocks += n - first;
    first = 0;
  }
}

}  // namespace fbs::crypto
