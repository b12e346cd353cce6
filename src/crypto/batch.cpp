#include "crypto/batch.hpp"

#include <algorithm>
#include <array>

namespace fbs::crypto {
namespace {

std::size_t open_blocks(const CbcOpenJob& job) {
  return job.ciphertext.size() / Des::kBlockSize;
}

std::size_t seal_blocks(const CbcSealJob& job) {
  return CryptoBatch::padded_size(job.plaintext.size()) / Des::kBlockSize;
}

/// The PKCS#7 tail block: whatever plaintext remains past `off`, padded.
std::uint64_t tail_block(util::BytesView plaintext, std::size_t off) {
  std::uint8_t last[Des::kBlockSize];
  const std::size_t tail = plaintext.size() - off;
  const std::uint8_t pad = static_cast<std::uint8_t>(Des::kBlockSize - tail);
  for (std::size_t k = 0; k < tail; ++k) last[k] = plaintext[off + k];
  for (std::size_t k = tail; k < Des::kBlockSize; ++k) last[k] = pad;
  return Des::load_be64(last);
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
    for (const CbcOpenJob& job : jobs) open_scalar(job);
    return;
  }

  // CBC decrypt is block-parallel across (and within) datagrams: treat the
  // burst as one job-major global block sequence and give each lane a
  // contiguous run, so a lane's key only changes when its cursor crosses a
  // job boundary. Lane state is raw pointers plus the running chain word,
  // so the steady-state pass touches no job metadata at all.
  struct Cursor {
    const std::uint8_t* ct = nullptr;  // next ciphertext block
    std::uint8_t* pt = nullptr;        // next plaintext slot
    std::uint64_t chain = 0;           // CBC chain into the next block
    std::size_t remaining = 0;         // blocks left in this lane's run
    std::size_t left_in_job = 0;       // blocks left in the current job
    std::size_t job = 0;               // index into jobs
  };
  Cursor cur[kLanes];
  const Des* lane_key[kLanes];  // each lane's key at the first pass
  std::size_t rekeys = 0;       // mid-run key changes the passes will make
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
      std::size_t len = q + (lane < rem ? 1 : 0);
      Cursor& c = cur[lane];
      c.remaining = len;
      if (len == 0) {
        // Unlit lanes (only ever the last ones) extend the previous run.
        lane_key[lane] = lane_key[lane - 1];
        continue;
      }
      const CbcOpenJob& job = jobs[j];
      c.job = j;
      c.ct = job.ciphertext.data() + Des::kBlockSize * b;
      c.pt = job.plaintext + Des::kBlockSize * b;
      c.left_in_job = open_blocks(job) - b;
      c.chain = b == 0 ? job.iv : Des::load_be64(c.ct - Des::kBlockSize);
      lane_key[lane] = job.des;
      const Des* key = job.des;
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
  // one key costs about one group's keying, the transpose a flat price.
  const std::size_t runs = key_runs(lane_key);
  if (passes * kPassBlocks + keying_blocks(runs) + rekeys * kKeyGroupBlocks +
          spill >=
      total) {
    for (const CbcOpenJob& job : jobs) open_scalar(job);
    return;
  }
  key_lanes(lane_key, runs);

  for (std::size_t pass = 0; pass < passes; ++pass) {
    std::uint64_t blocks[kLanes];
    std::uint64_t cin[kLanes];
    for (std::size_t lane = 0; lane < kLanes; ++lane) {
      blocks[lane] = cin[lane] =
          cur[lane].remaining != 0 ? Des::load_be64(cur[lane].ct) : 0;
    }
    engine_.decrypt(blocks);
    ++stats_.passes;
    for (std::size_t lane = 0; lane < kLanes; ++lane) {
      Cursor& c = cur[lane];
      if (c.remaining == 0) continue;
      Des::store_be64(blocks[lane] ^ c.chain, c.pt);
      c.chain = cin[lane];
      c.ct += Des::kBlockSize;
      c.pt += Des::kBlockSize;
      --c.remaining;
      if (--c.left_in_job == 0 && c.remaining != 0) {
        std::size_t j = c.job + 1;
        while (open_blocks(jobs[j]) == 0) ++j;
        const CbcOpenJob& job = jobs[j];
        c.job = j;
        c.ct = job.ciphertext.data();
        c.pt = job.plaintext;
        c.chain = job.iv;
        c.left_in_job = open_blocks(job);
        if (job.des != lane_key[lane]) {
          engine_.set_lane(lane, job.des->round_keys());
          lane_key[lane] = job.des;
          ++stats_.lane_rekeys;
        }
      }
    }
  }
  stats_.bitsliced_blocks += wide_total;

  if (spill != 0) {
    // Finish the last `spill` blocks of the global sequence on the scalar
    // core. A mid-job start chains from the preceding ciphertext block,
    // exactly like a mid-job lane run above.
    std::size_t j = 0;
    std::size_t acc = 0;
    while (acc + open_blocks(jobs[j]) <= wide_total)
      acc += open_blocks(jobs[j++]);
    for (std::size_t b = wide_total - acc; j < jobs.size(); ++j, b = 0) {
      const CbcOpenJob& job = jobs[j];
      const std::size_t n = open_blocks(job);
      if (b >= n) continue;
      const std::uint8_t* ct = job.ciphertext.data() + Des::kBlockSize * b;
      std::uint8_t* pt = job.plaintext + Des::kBlockSize * b;
      std::uint64_t chain =
          b == 0 ? job.iv : Des::load_be64(ct - Des::kBlockSize);
      for (std::size_t k = b; k < n; ++k) {
        const std::uint64_t c = Des::load_be64(ct);
        Des::store_be64(job.des->decrypt_block(c) ^ chain, pt);
        chain = c;
        ct += Des::kBlockSize;
        pt += Des::kBlockSize;
      }
    }
    stats_.scalar_blocks += spill;
  }
}

void CryptoBatch::seal_cbc(std::span<const CbcSealJob> jobs) {
  for (std::size_t off = 0; off < jobs.size(); off += kLanes) {
    seal_group(jobs.subspan(off, std::min(kLanes, jobs.size() - off)));
  }
}

void CryptoBatch::seal_group(std::span<const CbcSealJob> jobs) {
  // CBC encrypt chains serially per datagram: one job per lane, peel one
  // block per pass. `jobs` has at most kLanes entries here.
  if (jobs.size() < kSealMinJobs) {
    for (const CbcSealJob& job : jobs) seal_scalar(job);
    return;
  }
  std::size_t total = 0;
  std::size_t passes = 0;
  for (const CbcSealJob& job : jobs) {
    const std::size_t n = seal_blocks(job);
    total += n;
    passes = std::max(passes, n);
  }

  const Des* lane_key[kLanes];
  for (std::size_t lane = 0; lane < kLanes; ++lane)
    lane_key[lane] = jobs[std::min(lane, jobs.size() - 1)].des;
  key_lanes(lane_key, key_runs(lane_key));

  std::uint64_t chain[kLanes];
  for (std::size_t i = 0; i < jobs.size(); ++i) chain[i] = jobs[i].iv;

  for (std::size_t pass = 0; pass < passes; ++pass) {
    std::uint64_t blocks[kLanes] = {};
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      const CbcSealJob& job = jobs[i];
      if (pass >= seal_blocks(job)) continue;
      const std::size_t off = pass * Des::kBlockSize;
      const std::uint64_t p = off + Des::kBlockSize <= job.plaintext.size()
                                  ? Des::load_be64(job.plaintext.data() + off)
                                  : tail_block(job.plaintext, off);
      blocks[i] = p ^ chain[i];
    }
    engine_.encrypt(blocks);
    ++stats_.passes;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      const CbcSealJob& job = jobs[i];
      if (pass >= seal_blocks(job)) continue;
      chain[i] = blocks[i];
      Des::store_be64(blocks[i], job.ciphertext + pass * Des::kBlockSize);
    }
  }
  stats_.bitsliced_blocks += total;
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

void CryptoBatch::open_scalar(const CbcOpenJob& job) {
  const std::size_t n = open_blocks(job);
  std::uint64_t chain = job.iv;
  const std::uint8_t* ct = job.ciphertext.data();
  std::uint8_t* pt = job.plaintext;
  for (std::size_t b = 0; b < n; ++b) {
    const std::uint64_t c = Des::load_be64(ct);
    Des::store_be64(job.des->decrypt_block(c) ^ chain, pt);
    chain = c;
    ct += Des::kBlockSize;
    pt += Des::kBlockSize;
  }
  stats_.scalar_blocks += n;
}

void CryptoBatch::seal_scalar(const CbcSealJob& job) {
  const std::size_t whole = job.plaintext.size() / Des::kBlockSize;
  std::uint64_t chain = job.iv;
  const std::uint8_t* in = job.plaintext.data();
  std::uint8_t* out = job.ciphertext;
  for (std::size_t b = 0; b < whole; ++b) {
    chain = job.des->encrypt_block(Des::load_be64(in) ^ chain);
    Des::store_be64(chain, out);
    in += Des::kBlockSize;
    out += Des::kBlockSize;
  }
  chain = job.des->encrypt_block(
      tail_block(job.plaintext, whole * Des::kBlockSize) ^ chain);
  Des::store_be64(chain, out);
  stats_.scalar_blocks += whole + 1;
}

}  // namespace fbs::crypto
