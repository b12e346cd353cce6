#include "crypto/batch.hpp"

#include <algorithm>
#include <array>
#include <cassert>

#include "crypto/block_modes.hpp"

namespace fbs::crypto {
namespace {

constexpr std::size_t kLanes = CryptoBatch::kLanes;
/// Distinct keys beyond which keying range by range cannot beat the
/// transpose (each range touches at least one group), so the jobs are not
/// grouped by key at all.
constexpr std::size_t kMaxKeyRanges =
    CryptoBatch::kKeyLanesBlocks / CryptoBatch::kKeyGroupBlocks;

std::size_t open_blocks(const CbcOpenJob& job) {
  return job.ciphertext.size() / Des::kBlockSize;
}

/// The 64-lane groups lanes [first, last) touch: what set_lane_range pays.
std::size_t groups_touched(std::size_t first, std::size_t last) {
  if (first == last) return 0;
  return (last - 1) / DesBitslice::kGroupLanes -
         first / DesBitslice::kGroupLanes + 1;
}

/// One pass count's lane allocation over the jobs in lane order.
struct Allocation {
  std::size_t passes = 0;  // P: job i's blocks [0, P * lanes[i]) fit
  std::size_t spill = 0;   // blocks left to the scalar loop
  std::size_t keying = 0;  // the lanes' keying, in scalar blocks
  std::uint16_t lanes[kLanes];

  std::size_t cost() const {
    return passes * CryptoBatch::kPassBlocks + keying + spill;
  }
};

}  // namespace

void CryptoBatch::open_cbc(std::span<const CbcOpenJob> jobs) {
  for (std::size_t at = 0; at < jobs.size(); at += kLanes)
    open_window(jobs.subspan(at, std::min(kLanes, jobs.size() - at)));
}

void CryptoBatch::open_window(std::span<const CbcOpenJob> jobs) {
  std::size_t total = 0;
  for (const CbcOpenJob& job : jobs) total += open_blocks(job);
  // A wide plan costs at least its passes and one broadcast keying; every
  // burst under kPassBlocks + kKeyAllBlocks blocks stops here.
  const std::size_t min_passes = std::max<std::size_t>(1, total / kLanes);
  const auto run_scalar = [&] {
    for (const CbcOpenJob& job : jobs) open_scalar(job, 0);
  };
  if (min_passes * kPassBlocks + kKeyAllBlocks >= total) {
    run_scalar();
    return;
  }

  // Sort the non-empty jobs by key: key_of[j] is job j's index into keys,
  // the distinct keys in order of first use. Past kMaxKeyRanges keys the
  // transpose keys the lanes whatever their order, so the jobs keep theirs.
  const Des* keys[kMaxKeyRanges];
  std::size_t nkeys = 0;
  bool grouped = true;
  std::uint8_t key_of[kLanes];
  std::size_t key_jobs[kMaxKeyRanges] = {};
  for (std::size_t j = 0, k = 0; j < jobs.size(); ++j) {
    if (open_blocks(jobs[j]) == 0) continue;
    // Neighbours mostly share a key: try the previous job's first.
    if (k == nkeys || keys[k] != jobs[j].des) {
      for (k = 0; k < nkeys && keys[k] != jobs[j].des; ++k) {
      }
      if (k == nkeys) {
        if (nkeys == kMaxKeyRanges) {
          grouped = false;
          break;
        }
        keys[nkeys++] = jobs[j].des;
      }
    }
    key_of[j] = static_cast<std::uint8_t>(k);
    ++key_jobs[k];
  }
  // With several keys the keying costs at least one group per key.
  if (grouped && nkeys > 1 &&
      min_passes * kPassBlocks +
              std::min(nkeys * kKeyGroupBlocks, kKeyLanesBlocks) >=
          total) {
    run_scalar();
    return;
  }

  // The lane order: order[i] is the job on the i-th run of lanes, blocks[i]
  // its block count; key k's jobs are [key_first[k], key_first[k + 1]).
  std::uint16_t order[kLanes];
  std::uint32_t blocks[kLanes];
  std::size_t key_first[kMaxKeyRanges + 1];
  std::size_t m = 0;
  if (grouped) {
    std::size_t next[kMaxKeyRanges];
    for (std::size_t k = 0; k < nkeys; ++k) {
      key_first[k] = next[k] = m;
      m += key_jobs[k];
    }
    key_first[nkeys] = m;
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      if (open_blocks(jobs[j]) == 0) continue;
      const std::size_t i = next[key_of[j]]++;
      order[i] = static_cast<std::uint16_t>(j);
      blocks[i] = static_cast<std::uint32_t>(open_blocks(jobs[j]));
    }
  } else {
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      if (open_blocks(jobs[j]) == 0) continue;
      order[m] = static_cast<std::uint16_t>(j);
      blocks[m++] = static_cast<std::uint32_t>(open_blocks(jobs[j]));
    }
  }

  // The lanes key k's jobs take under allocation a: one range.
  const auto key_lanes = [&](const Allocation& a, std::size_t k) {
    std::size_t run = 0;
    for (std::size_t i = key_first[k]; i < key_first[k + 1]; ++i)
      run += a.lanes[i];
    return run;
  };
  // Lay out P passes: floor(n / P) lanes per job, then one more lane each,
  // in lane order, to the jobs with a remainder while lanes are left. If
  // the floors alone overrun the lanes, the jobs take them in lane order and
  // the rest spills.
  const auto allocate = [&](std::uint32_t p, Allocation& a) {
    a.passes = p;
    std::size_t base = 0;
    for (std::size_t i = 0; i < m; ++i) {
      a.lanes[i] = static_cast<std::uint16_t>(blocks[i] / p);
      base += a.lanes[i];
    }
    a.spill = 0;
    if (base >= kLanes) {
      std::size_t left = kLanes;
      for (std::size_t i = 0; i < m; ++i) {
        a.lanes[i] = static_cast<std::uint16_t>(
            std::min<std::size_t>(a.lanes[i], left));
        left -= a.lanes[i];
      }
      a.spill = total - p * kLanes;
    } else {
      std::size_t left = kLanes - base;
      for (std::size_t i = 0; i < m; ++i) {
        const std::uint32_t rem = blocks[i] - a.lanes[i] * p;
        if (rem == 0) continue;
        if (left == 0) {
          a.spill += rem;
          continue;
        }
        ++a.lanes[i];
        --left;
      }
    }
    if (nkeys == 1) {
      a.keying = kKeyAllBlocks;
    } else if (!grouped) {
      a.keying = kKeyLanesBlocks;
    } else {
      std::size_t groups = 0;
      std::size_t lane = 0;
      for (std::size_t k = 0; k < nkeys; ++k) {
        const std::size_t run = key_lanes(a, k);
        groups += groups_touched(lane, lane + run);
        lane += run;
      }
      a.keying = std::min(groups * kKeyGroupBlocks, kKeyLanesBlocks);
    }
  };
  // P = min_passes spills at least total mod kLanes; one more pass spills
  // only what the lane rounding leaves, so it pays only when it saves more
  // than a pass of spill. More passes never pay.
  Allocation plans[2];
  allocate(static_cast<std::uint32_t>(min_passes), plans[0]);
  const Allocation* plan = &plans[0];
  if (plans[0].spill > kPassBlocks) {
    allocate(static_cast<std::uint32_t>(min_passes + 1), plans[1]);
    if (plans[1].cost() < plans[0].cost()) plan = &plans[1];
  }
  if (plan->cost() >= total) {
    run_scalar();
    return;
  }

  // Key every lane once for the whole burst.
  if (nkeys == 1) {
    engine_.set_all_lanes(keys[0]->round_keys());
  } else if (plan->keying < kKeyLanesBlocks) {
    std::size_t lane = 0;
    for (std::size_t k = 0; k < nkeys; ++k) {
      const std::size_t run = key_lanes(*plan, k);
      if (run == 0) continue;
      engine_.set_lane_range(lane, lane + run, keys[k]->round_keys());
      ++stats_.key_ranges;
      lane += run;
    }
  } else {
    std::array<const DesRoundKeys*, kLanes> lane_keys;
    lane_keys.fill(&jobs[order[0]].des->round_keys());
    for (std::size_t i = 0, lane = 0; i < m; ++i)
      for (std::size_t k = 0; k < plan->lanes[i]; ++k)
        lane_keys[lane++] = &jobs[order[i]].des->round_keys();
    engine_.set_lanes(lane_keys);
  }

  // The wide jobs in lane order, each with its span width and the blocks
  // its lanes cover; pass p reads and writes blocks
  // [p * lanes, min((p + 1) * lanes, covered)).
  struct Span {
    const std::uint8_t* ct;
    std::uint8_t* pt;
    std::uint64_t iv;
    std::size_t lanes;
    std::size_t covered;
  };
  Span spans[kLanes];
  std::size_t nspans = 0;
  for (std::size_t i = 0; i < m; ++i) {
    const std::size_t k = plan->lanes[i];
    const CbcOpenJob& job = jobs[order[i]];
    assert(job.plaintext + job.ciphertext.size() <= job.ciphertext.data() ||
           job.ciphertext.data() + job.ciphertext.size() <= job.plaintext);
    const std::size_t covered =
        std::min<std::size_t>(blocks[i], plan->passes * k);
    if (k != 0)
      spans[nspans++] = Span{job.ciphertext.data(), job.plaintext, job.iv, k,
                             covered};
  }
  // Lanes no span reaches carry whatever they last held; zero them once so
  // the engine never reads an unset block.
  std::uint64_t lane_blocks[kLanes] = {};
  for (std::size_t pass = 0; pass < plan->passes; ++pass) {
    // Jobs that got an extra lane may all finish before pass P; a pass
    // with nothing to load ends the plan.
    bool lit = false;
    std::size_t lane = 0;
    for (std::size_t s = 0; s < nspans; ++s) {
      const Span& span = spans[s];
      const std::size_t first = pass * span.lanes;
      if (first < span.covered) {
        const std::size_t count = std::min(span.lanes, span.covered - first);
        const std::uint8_t* ct = span.ct + Des::kBlockSize * first;
        for (std::size_t i = 0; i < count; ++i)
          lane_blocks[lane + i] = Des::load_be64(ct + Des::kBlockSize * i);
        lit = true;
      }
      lane += span.lanes;
    }
    if (!lit) break;
    engine_.decrypt(lane_blocks);
    ++stats_.passes;
    lane = 0;
    for (std::size_t s = 0; s < nspans; ++s) {
      const Span& span = spans[s];
      const std::size_t first = pass * span.lanes;
      if (first < span.covered) {
        const std::size_t count = std::min(span.lanes, span.covered - first);
        const std::uint8_t* ct = span.ct + Des::kBlockSize * first;
        std::uint8_t* pt = span.pt + Des::kBlockSize * first;
        // Each block's chain input is the ciphertext block before it.
        Des::store_be64(lane_blocks[lane] ^
                            (first == 0 ? span.iv
                                        : Des::load_be64(ct - Des::kBlockSize)),
                        pt);
        for (std::size_t i = 1; i < count; ++i)
          Des::store_be64(
              lane_blocks[lane + i] ^
                  Des::load_be64(ct + Des::kBlockSize * (i - 1)),
              pt + Des::kBlockSize * i);
      }
      lane += span.lanes;
    }
  }
  stats_.bitsliced_blocks += total - plan->spill;

  // The spill: each job's blocks past its lanes' reach, on the scalar loop.
  for (std::size_t i = 0; i < m; ++i)
    open_scalar(jobs[order[i]], plan->passes * plan->lanes[i]);
}

void CryptoBatch::open_scalar(const CbcOpenJob& job, std::size_t first) {
  const std::size_t n = open_blocks(job);
  if (first >= n) return;
  const std::uint8_t* ct = job.ciphertext.data() + Des::kBlockSize * first;
  cbc_decrypt_blocks(
      *job.des, first == 0 ? job.iv : Des::load_be64(ct - Des::kBlockSize), ct,
      job.plaintext + Des::kBlockSize * first, n - first);
  stats_.scalar_blocks += n - first;
}

}  // namespace fbs::crypto
