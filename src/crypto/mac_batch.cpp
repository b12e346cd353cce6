#include <algorithm>
#include <array>
#include <cstring>

#include "crypto/mac.hpp"

namespace fbs::crypto {

namespace {

constexpr std::size_t kBlock = Md5::kBlockSize;

/// What an idle lane compresses while the others finish; discarded.
constexpr std::uint8_t kIdleBlock[kBlock] = {};

}  // namespace

bool MacBatch::on_lanes(const MacJob& job) {
  return job.mac->kind_ != MacContext::Kind::kNull &&
         std::holds_alternative<Md5>(job.mac->start_);
}

void MacBatch::compute(std::span<const MacJob> jobs) {
  const auto lane_jobs = static_cast<std::size_t>(
      std::count_if(jobs.begin(), jobs.end(), on_lanes));
  const bool use_lanes = lane_jobs >= kMinLaneJobs;
  for (const MacJob& job : jobs) {
    if (use_lanes && on_lanes(job)) continue;
    job.mac->begin();
    job.mac->update(job.prefix);
    job.mac->update(job.body);
    job.mac->finish_into(job.tag);
    ++stats_.scalar_jobs;
  }
  if (use_lanes) compute_lanes(jobs);
}

void MacBatch::compute_lanes(std::span<const MacJob> jobs) {
  // A lane's message is a saved MD5 state continued with three parts: the
  // state's pending bytes, the prefix and the body, then RFC 1321 padding.
  struct Lane {
    const MacJob* job = nullptr;  // nullptr: idle
    bool outer = false;           // running an HMAC job's outer hash
    std::array<util::BytesView, 3> parts;
    std::size_t head = 0;         // bytes before the body
    std::size_t size = 0;         // bytes in the three parts
    std::uint64_t bit_len = 0;    // whole message, in bits
    std::size_t blocks = 0;       // padded block count
    std::size_t next = 0;         // next block to compress
    // Blocks [direct_begin, direct_end) lie wholly inside the body and are
    // read from it in place; the others are assembled in `scratch`.
    std::size_t direct_begin = 0;
    std::size_t direct_end = 0;
    std::array<std::uint8_t, Md5::kDigestSize> inner{};  // HMAC inner digest
    std::array<std::uint8_t, kBlock> scratch{};
  };
  std::array<Lane, kLanes> lanes;
  Md5x8::State state{};
  std::size_t next_job = 0;
  std::size_t active = 0;

  const auto load = [&](std::size_t l, const Md5& from,
                        util::BytesView prefix, util::BytesView body) {
    Lane& lane = lanes[l];
    const std::size_t pending = from.total_len_ % kBlock;
    lane.parts = {util::BytesView(from.buffer_.data(), pending), prefix,
                  body};
    lane.head = pending + prefix.size();
    lane.size = lane.head + body.size();
    lane.bit_len = (from.total_len_ + prefix.size() + body.size()) * 8;
    lane.blocks = (lane.size + 8) / kBlock + 1;
    lane.next = 0;
    lane.direct_begin = (lane.head + kBlock - 1) / kBlock;
    lane.direct_end = lane.size / kBlock;
    for (std::size_t w = 0; w < 4; ++w) state[w][l] = from.state_[w];
  };

  const auto refill = [&](std::size_t l) {
    Lane& lane = lanes[l];
    while (next_job < jobs.size() && !on_lanes(jobs[next_job])) ++next_job;
    if (next_job == jobs.size()) {
      if (lane.job) --active;
      lane.job = nullptr;
      return;
    }
    if (!lane.job) ++active;
    lane.job = &jobs[next_job++];
    lane.outer = false;
    load(l, std::get<Md5>(lane.job->mac->start_), lane.job->prefix,
         lane.job->body);
    ++stats_.lane_jobs;
  };

  const auto block = [&](Lane& lane) -> const std::uint8_t* {
    const std::size_t k = lane.next;
    if (k >= lane.direct_begin && k < lane.direct_end)
      return lane.parts[2].data() + (k * kBlock - lane.head);
    std::uint8_t* out = lane.scratch.data();
    const std::size_t start = k * kBlock;
    std::size_t off = 0;  // stream offset of the current part
    for (const util::BytesView part : lane.parts) {
      const std::size_t lo = std::max(start, off);
      const std::size_t hi = std::min(start + kBlock, off + part.size());
      if (lo < hi) std::memcpy(out + (lo - start), part.data() + (lo - off),
                               hi - lo);
      off += part.size();
    }
    if (start + kBlock > lane.size) {
      // Padding: 0x80 after the message, zeros, and the little-endian bit
      // length in the last eight bytes of the last block.
      const std::size_t end = lane.size > start ? lane.size - start : 0;
      std::memset(out + end, 0, kBlock - end);
      if (lane.size >= start) out[end] = 0x80;
      if (k + 1 == lane.blocks) {
        for (std::size_t i = 0; i < 8; ++i)
          out[kBlock - 8 + i] =
              static_cast<std::uint8_t>(lane.bit_len >> (8 * i));
      }
    }
    return out;
  };

  for (std::size_t l = 0; l < kLanes; ++l) refill(l);
  std::array<const std::uint8_t*, kLanes> blocks;
  while (active > 0) {
    for (std::size_t l = 0; l < kLanes; ++l)
      blocks[l] = lanes[l].job ? block(lanes[l]) : kIdleBlock;
    Md5x8::compress(state, blocks);
    ++stats_.passes;
    for (std::size_t l = 0; l < kLanes; ++l) {
      Lane& lane = lanes[l];
      if (!lane.job || ++lane.next < lane.blocks) continue;
      const MacContext& mac = *lane.job->mac;
      const bool inner = mac.kind_ == MacContext::Kind::kHmac && !lane.outer;
      std::uint8_t* digest = inner ? lane.inner.data() : lane.job->tag;
      for (std::size_t w = 0; w < 4; ++w)
        for (std::size_t i = 0; i < 4; ++i)
          digest[4 * w + i] = static_cast<std::uint8_t>(state[w][l] >> (8 * i));
      if (inner) {
        // RFC 2104's outer hash: H(K ^ opad | inner digest), one block.
        lane.outer = true;
        load(l, std::get<Md5>(mac.outer_), lane.inner, {});
      } else {
        refill(l);
      }
    }
  }
}

}  // namespace fbs::crypto
