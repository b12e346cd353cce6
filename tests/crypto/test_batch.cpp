#include "crypto/batch.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "crypto/block_modes.hpp"
#include "crypto/des.hpp"
#include "util/rng.hpp"

namespace fbs::crypto {
namespace {

struct Flow {
  util::Bytes key;
  Des des;

  explicit Flow(util::Bytes k) : key(std::move(k)), des(key) {}
};

/// Build a burst of bodies with the given sizes, CBC-encrypt each with the
/// scalar path, then check that the open planner recovers them.
void check_burst(std::uint64_t seed, const std::vector<std::size_t>& sizes,
                 std::size_t flows) {
  util::SplitMix64 rng(seed);
  std::vector<Flow> flow_set;
  flow_set.reserve(flows);
  for (std::size_t i = 0; i < flows; ++i) flow_set.emplace_back(rng.next_bytes(8));

  std::vector<util::Bytes> bodies;
  std::vector<util::Bytes> ciphertexts;
  std::vector<std::uint64_t> ivs;
  std::vector<std::size_t> owner;
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    bodies.push_back(rng.next_bytes(sizes[i]));
    ivs.push_back(rng.next_u64());
    owner.push_back(i % flows);
    const Flow& f = flow_set[owner.back()];
    ciphertexts.push_back(encrypt(f.des, CipherMode::kCbc, ivs[i], bodies[i]));
  }

  // open: batch-decrypt the scalar ciphertexts, expect padded plaintexts.
  CryptoBatch batch;
  std::vector<util::Bytes> opened(sizes.size());
  std::vector<CbcOpenJob> open_jobs;
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    const Flow& f = flow_set[owner[i]];
    opened[i].resize(ciphertexts[i].size());
    open_jobs.push_back(CbcOpenJob{&f.des, ivs[i],
                                   ciphertexts[i], opened[i].data()});
  }
  batch.open_cbc(open_jobs);
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    // Padded plaintext: body followed by PKCS#7 pad bytes.
    const std::size_t pad = opened[i].size() - bodies[i].size();
    ASSERT_GE(pad, 1u);
    ASSERT_LE(pad, 8u);
    ASSERT_TRUE(std::equal(bodies[i].begin(), bodies[i].end(),
                           opened[i].begin()))
        << "job " << i;
    for (std::size_t k = bodies[i].size(); k < opened[i].size(); ++k) {
      ASSERT_EQ(opened[i][k], pad) << "job " << i << " pad byte " << k;
    }
  }
}

TEST(CryptoBatch, SingleLargeDatagramSingleFlow) {
  // One 1408B datagram: decrypt splits its 177 blocks across lanes.
  check_burst(1, {1408}, 1);
}

TEST(CryptoBatch, BurstOfEqualDatagramsOneFlow) {
  check_burst(2, std::vector<std::size_t>(32, 512), 1);
}

TEST(CryptoBatch, BurstMixedSizesMixedFlows) {
  check_burst(3, {0, 1, 7, 8, 9, 63, 64, 65, 512, 1408, 100, 333, 24, 8000},
              5);
}

TEST(CryptoBatch, EveryJobDistinctFlow) {
  std::vector<std::size_t> sizes(64, 96);
  check_burst(4, sizes, 64);
}

TEST(CryptoBatch, MoreJobsThanLanes) {
  check_burst(5, std::vector<std::size_t>(150, 40), 9);
}

TEST(CryptoBatch, SubThresholdBurstFallsBackToScalar) {
  CryptoBatch probe;
  // 2 jobs x 2 blocks = 4 blocks < threshold: scalar path, still correct.
  check_burst(6, {10, 12}, 2);
  // Verify the routing decision itself on a fresh batch.
  util::SplitMix64 rng(7);
  Flow f(rng.next_bytes(8));
  util::Bytes body = rng.next_bytes(10);
  util::Bytes ct = encrypt(f.des, CipherMode::kCbc, 99, body);
  util::Bytes out(ct.size());
  const CbcOpenJob job{&f.des, 99, ct, out.data()};
  probe.open_cbc({&job, 1});
  EXPECT_EQ(probe.stats().bitsliced_blocks, 0u);
  EXPECT_EQ(probe.stats().scalar_blocks, 2u);
}

TEST(CryptoBatch, LargeBurstUsesBitsliceEngine) {
  util::SplitMix64 rng(8);
  Flow f(rng.next_bytes(8));
  util::Bytes body = rng.next_bytes(1408);
  util::Bytes ct = encrypt(f.des, CipherMode::kCbc, 1234, body);
  util::Bytes out(ct.size());
  CryptoBatch batch;
  const CbcOpenJob job{&f.des, 1234, ct, out.data()};
  batch.open_cbc({&job, 1});
  EXPECT_EQ(batch.stats().bitsliced_blocks, ct.size() / 8);
  EXPECT_EQ(batch.stats().scalar_blocks, 0u);
  // All blocks covered in ceil(blocks / kLanes) full-width passes.
  EXPECT_EQ(batch.stats().passes,
            (ct.size() / 8 + CryptoBatch::kLanes - 1) / CryptoBatch::kLanes);
}

TEST(CryptoBatch, MixedKeyBurstKeysOneRangePerKey) {
  util::SplitMix64 rng(9);
  std::vector<Flow> flows;
  for (int i = 0; i < 4; ++i) flows.emplace_back(rng.next_bytes(8));
  std::vector<util::Bytes> bodies;
  std::vector<util::Bytes> cts;
  std::vector<util::Bytes> outs;
  std::vector<CbcOpenJob> jobs;
  bodies.reserve(8);
  cts.reserve(8);
  outs.reserve(8);
  for (std::size_t i = 0; i < 8; ++i) {
    const Flow& f = flows[i % flows.size()];
    bodies.push_back(rng.next_bytes(200));
    cts.push_back(encrypt(f.des, CipherMode::kCbc, i, bodies.back()));
    outs.emplace_back(cts.back().size());
  }
  for (std::size_t i = 0; i < 8; ++i) {
    const Flow& f = flows[i % flows.size()];
    jobs.push_back(CbcOpenJob{&f.des, i, cts[i], outs[i].data()});
  }
  CryptoBatch batch;
  batch.open_cbc(jobs);
  for (std::size_t i = 0; i < 8; ++i) {
    ASSERT_TRUE(std::equal(bodies[i].begin(), bodies[i].end(),
                           outs[i].begin()))
        << "job " << i;
  }
  // 8 jobs of 26 blocks fill 208 lanes in one pass; the jobs sharing a
  // key sit side by side, so the lanes are keyed once, one range per key.
  EXPECT_EQ(batch.stats().passes, 1u);
  EXPECT_LE(batch.stats().key_ranges, 4u);
}

/// Raw CBC decrypt of `ct` (no unpadding): what open_cbc must produce.
util::Bytes scalar_cbc_open(const Des& des, std::uint64_t iv,
                            const util::Bytes& ct) {
  util::Bytes out(ct.size());
  std::uint64_t chain = iv;
  for (std::size_t off = 0; off < ct.size(); off += Des::kBlockSize) {
    const std::uint64_t c = Des::load_be64(ct.data() + off);
    Des::store_be64(des.decrypt_block(c) ^ chain, out.data() + off);
    chain = c;
  }
  return out;
}

TEST(CryptoBatch, OpenMatchesScalarLoopOnRandomShapes) {
  // Whichever plan the cost model picks, and however it keys the lanes
  // (broadcast, ranges of lanes, or the per-lane transpose), the output
  // must not tell: random bursts of 1-64 jobs of 1-200 blocks under 1-16
  // keys in any order decrypt bit for bit as the scalar loop does.
  util::SplitMix64 rng(2024);
  std::vector<Flow> flows;
  flows.reserve(16);
  for (int i = 0; i < 16; ++i) flows.emplace_back(rng.next_bytes(8));
  CryptoBatch batch;
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t njobs = 1 + rng.next_below(64);
    const std::size_t nkeys = 1 + rng.next_below(16);
    std::vector<util::Bytes> cts(njobs);
    std::vector<util::Bytes> got(njobs);
    std::vector<CbcOpenJob> jobs;
    for (std::size_t j = 0; j < njobs; ++j) {
      cts[j] = rng.next_bytes(Des::kBlockSize * (1 + rng.next_below(200)));
      got[j].resize(cts[j].size());
      jobs.push_back(CbcOpenJob{&flows[rng.next_below(nkeys)].des,
                                rng.next_u64(), cts[j], got[j].data()});
    }
    batch.open_cbc(jobs);
    for (std::size_t j = 0; j < njobs; ++j) {
      ASSERT_EQ(got[j], scalar_cbc_open(*jobs[j].des, jobs[j].iv, cts[j]))
          << "trial " << trial << " job " << j << " of " << njobs << ", "
          << nkeys << " keys";
    }
  }
  EXPECT_GT(batch.stats().bitsliced_blocks, 0u);
  EXPECT_GT(batch.stats().scalar_blocks, 0u);

  // The scalar plan runs cbc_decrypt_blocks, four blocks a step, then a
  // pair and a single block: bursts of 1-8 jobs of 1-9 blocks under 1-4
  // keys, every tail length, all opened by it and all bit for bit as the
  // one-block loop.
  CryptoBatch small;
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t njobs = 1 + rng.next_below(8);
    const std::size_t nkeys = 1 + rng.next_below(4);
    std::vector<util::Bytes> cts(njobs);
    std::vector<util::Bytes> got(njobs);
    std::vector<CbcOpenJob> jobs;
    for (std::size_t j = 0; j < njobs; ++j) {
      cts[j] = rng.next_bytes(Des::kBlockSize * (1 + rng.next_below(9)));
      got[j].resize(cts[j].size());
      jobs.push_back(CbcOpenJob{&flows[rng.next_below(nkeys)].des,
                                rng.next_u64(), cts[j], got[j].data()});
    }
    small.open_cbc(jobs);
    for (std::size_t j = 0; j < njobs; ++j) {
      ASSERT_EQ(got[j], scalar_cbc_open(*jobs[j].des, jobs[j].iv, cts[j]))
          << "small trial " << trial << " job " << j << " of " << njobs;
    }
  }
  EXPECT_EQ(small.stats().passes, 0u);
  EXPECT_GT(small.stats().scalar_blocks, 0u);

  // Fixed shapes whose scalar spill starts at a chosen place, each job
  // checked against decrypt_into. One key and one full pass each, so the
  // wide plan wins and the last total % kLanes blocks spill.
  struct Shape {
    const char* name;
    std::vector<std::size_t> blocks;  // per job
  };
  const Shape shapes[] = {
      {"spill starts mid-job", {100, 100, 76}},
      {"spill starts at a job boundary", {128, 128, 30}},
      {"spill follows zero-block jobs", {150, 106, 0, 0, 12, 0, 9}},
      {"spill starts one block into a job", {255, 23}},
      {"spill starts two blocks into a job", {254, 29}},
      {"spill starts three blocks into a job", {253, 6}},
  };
  for (const Shape& shape : shapes) {
    std::vector<util::Bytes> cts;
    std::vector<util::Bytes> got;
    std::vector<std::uint64_t> ivs;
    std::size_t total = 0;
    for (std::size_t n : shape.blocks) {
      ivs.push_back(rng.next_u64());
      // A body of 8n - 3 bytes pads to exactly n blocks.
      cts.push_back(n == 0 ? util::Bytes{}
                           : encrypt(flows[0].des, CipherMode::kCbc,
                                     ivs.back(), rng.next_bytes(8 * n - 3)));
      got.emplace_back(cts.back().size());
      total += n;
    }
    std::vector<CbcOpenJob> jobs;
    for (std::size_t j = 0; j < cts.size(); ++j)
      jobs.push_back(CbcOpenJob{&flows[0].des, ivs[j], cts[j], got[j].data()});
    CryptoBatch fixed;
    fixed.open_cbc(jobs);
    EXPECT_EQ(fixed.stats().passes, 1u) << shape.name;
    EXPECT_EQ(fixed.stats().bitsliced_blocks, CryptoBatch::kLanes)
        << shape.name;
    EXPECT_EQ(fixed.stats().scalar_blocks, total - CryptoBatch::kLanes)
        << shape.name;
    for (std::size_t j = 0; j < cts.size(); ++j) {
      if (cts[j].empty()) continue;
      util::Bytes want;
      ASSERT_TRUE(decrypt_into(flows[0].des, CipherMode::kCbc, ivs[j], cts[j],
                               want))
          << shape.name << ", job " << j;
      ASSERT_TRUE(std::equal(want.begin(), want.end(), got[j].begin()))
          << shape.name << ", job " << j;
      for (std::size_t k = want.size(); k < got[j].size(); ++k)
        ASSERT_EQ(got[j][k], 3u) << shape.name << ", job " << j;
    }
  }
}

TEST(CryptoBatch, SmallMultiKeyOpenPlansScalar) {
  // 16 jobs of 5 blocks alternating over 8 keys: one wide pass plus keying
  // 16 runs of lanes costs more than the 80 blocks do on the scalar core,
  // so the whole burst runs scalar (it used to pay the 256-lane transpose
  // on top of the pass). Under one key the same burst takes the pass.
  util::SplitMix64 rng(11);
  std::vector<Flow> flows;
  flows.reserve(8);
  for (int i = 0; i < 8; ++i) flows.emplace_back(rng.next_bytes(8));
  std::vector<util::Bytes> cts(16);
  std::vector<util::Bytes> outs(16);
  for (std::size_t j = 0; j < 16; ++j) {
    cts[j] = rng.next_bytes(5 * Des::kBlockSize);
    outs[j].resize(cts[j].size());
  }
  const auto open = [&](std::size_t keys) {
    std::vector<CbcOpenJob> jobs;
    for (std::size_t j = 0; j < 16; ++j)
      jobs.push_back(CbcOpenJob{&flows[j % keys].des, j, cts[j],
                                outs[j].data()});
    CryptoBatch batch;
    batch.open_cbc(jobs);
    for (std::size_t j = 0; j < 16; ++j)
      EXPECT_EQ(outs[j], scalar_cbc_open(flows[j % keys].des, j, cts[j]));
    return batch.stats();
  };
  const CryptoBatch::Stats multi = open(8);
  EXPECT_EQ(multi.bitsliced_blocks, 0u);
  EXPECT_EQ(multi.scalar_blocks, 80u);
  EXPECT_EQ(multi.passes, 0u);
  const CryptoBatch::Stats single = open(1);
  EXPECT_EQ(single.bitsliced_blocks, 80u);
  EXPECT_EQ(single.passes, 1u);
}

TEST(CryptoBatch, JobMajorPlanShapesMatchScalarLoop) {
  // Each job gets its own run of lanes, the jobs under one key side by
  // side, and every lane is keyed once per burst: one set_lane_range per
  // key that has lanes (a one-key burst is a broadcast and counts none).
  // Each shape checks the plan it must take and its output against the
  // one-block loop.
  util::SplitMix64 rng(27);
  std::vector<Flow> flows;
  flows.reserve(5);
  for (int i = 0; i < 5; ++i) flows.emplace_back(rng.next_bytes(8));
  struct Shape {
    const char* name;
    std::vector<std::size_t> blocks;  // per job
    std::vector<std::size_t> key;     // per job, an index into flows
    std::uint64_t passes;
    std::uint64_t key_ranges;
    std::uint64_t scalar_blocks;
  };
  std::vector<std::size_t> campus_keys;
  for (std::size_t j = 0; j < 16; ++j) campus_keys.push_back(j % 5);
  std::vector<std::size_t> many_keys;
  for (std::size_t j = 0; j < 300; ++j) many_keys.push_back(j % 3);
  const Shape shapes[] = {
      // 16 x 177 under 5 interleaved keys: 16 lanes a job over 11 passes,
      // one block of each job spilled, five ranges.
      {"campus", std::vector<std::size_t>(16, 177), campus_keys, 11, 5, 16},
      // The 3-block job gets 2 lanes over 2 passes, one of them idle in
      // the second.
      {"job shorter than its lanes' reach", {200, 200, 3}, {0, 1, 0}, 2, 2,
       0},
      // Zero-block jobs take no lanes; the last full job runs out of lanes
      // and spills 17 blocks, the other two one each.
      {"zero-block jobs between full ones", {177, 0, 177, 0, 0, 177},
       {0, 1, 0, 1, 0, 1}, 2, 2, 19},
      // 256 jobs of one lane each over 4 passes, then the last 44 jobs in
      // one pass of 4 lanes each; three ranges for each.
      {"more jobs than lanes", std::vector<std::size_t>(300, 4), many_keys,
       5, 6, 0},
      // 128 lanes, 1 lane and 127 lanes over 2 passes: only the last block
      // of the last job spills.
      {"one-block job beside 255-block ones", {255, 1, 255}, {0, 0, 0}, 2, 0,
       1},
  };
  for (const Shape& shape : shapes) {
    std::vector<util::Bytes> cts;
    std::vector<util::Bytes> got;
    std::vector<CbcOpenJob> jobs;
    cts.reserve(shape.blocks.size());
    got.reserve(shape.blocks.size());
    for (std::size_t j = 0; j < shape.blocks.size(); ++j) {
      cts.push_back(rng.next_bytes(Des::kBlockSize * shape.blocks[j]));
      got.emplace_back(cts.back().size());
      jobs.push_back(CbcOpenJob{&flows[shape.key[j]].des, rng.next_u64(),
                                cts.back(), got.back().data()});
    }
    CryptoBatch batch;
    batch.open_cbc(jobs);
    std::size_t total = 0;
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      total += shape.blocks[j];
      ASSERT_EQ(got[j], scalar_cbc_open(*jobs[j].des, jobs[j].iv, cts[j]))
          << shape.name << ", job " << j;
    }
    EXPECT_EQ(batch.stats().passes, shape.passes) << shape.name;
    EXPECT_EQ(batch.stats().key_ranges, shape.key_ranges) << shape.name;
    EXPECT_EQ(batch.stats().scalar_blocks, shape.scalar_blocks) << shape.name;
    EXPECT_EQ(batch.stats().bitsliced_blocks, total - shape.scalar_blocks)
        << shape.name;
  }
}

TEST(CryptoBatch, EmptyAndZeroBlockJobsAreSafe) {
  CryptoBatch batch;
  batch.open_cbc({});
  EXPECT_EQ(batch.stats().passes, 0u);
}

}  // namespace
}  // namespace fbs::crypto
