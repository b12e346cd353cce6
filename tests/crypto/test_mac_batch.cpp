// MacBatch against the scalar MacContext: every tag of a batch must equal
// begin()/update(prefix)/update(body)/finish_into() on the same context,
// whatever the mix of algorithms, lengths and shared contexts.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "crypto/algorithms.hpp"
#include "crypto/mac.hpp"
#include "util/rng.hpp"

namespace fbs::crypto {
namespace {

struct Message {
  util::Bytes prefix;
  util::Bytes body;
  std::size_t context = 0;
};

/// Compute `messages` through one MacBatch and one by one on the scalar
/// contexts, and expect the same tags.
void expect_batch_matches_scalar(std::vector<MacContext>& contexts,
                                 const std::vector<Message>& messages,
                                 MacBatch& batch) {
  std::vector<util::Bytes> want(messages.size());
  for (std::size_t i = 0; i < messages.size(); ++i) {
    MacContext& mac = contexts[messages[i].context];
    mac.begin();
    mac.update(messages[i].prefix);
    mac.update(messages[i].body);
    want[i] = mac.finish();
  }
  std::vector<util::Bytes> got(messages.size());
  std::vector<MacJob> jobs(messages.size());
  for (std::size_t i = 0; i < messages.size(); ++i) {
    MacContext& mac = contexts[messages[i].context];
    got[i].assign(mac.mac_size(), 0xA5);
    jobs[i] = MacJob{&mac, messages[i].prefix, messages[i].body,
                     got[i].data()};
  }
  batch.compute(jobs);
  for (std::size_t i = 0; i < messages.size(); ++i)
    ASSERT_EQ(got[i], want[i]) << "job " << i << " of " << messages.size()
                               << ", body " << messages[i].body.size();
}

std::vector<MacContext> contexts_for(MacAlgorithm alg, std::size_t n,
                                     util::SplitMix64& rng) {
  const auto mac = make_mac(alg);
  std::vector<MacContext> out;
  for (std::size_t i = 0; i < n; ++i)
    out.push_back(mac->make_context(rng.next_bytes(16)));
  return out;
}

TEST(MacBatch, EveryJobCountFrom1To64) {
  util::SplitMix64 rng(1);
  for (const MacAlgorithm alg :
       {MacAlgorithm::kKeyedMd5, MacAlgorithm::kHmacMd5}) {
    auto contexts = contexts_for(alg, 5, rng);
    for (std::size_t jobs = 1; jobs <= 64; ++jobs) {
      std::vector<Message> messages;
      for (std::size_t i = 0; i < jobs; ++i)
        messages.push_back({rng.next_bytes(10),
                            rng.next_bytes(rng.next_below(1600)),
                            rng.next_below(contexts.size())});
      MacBatch batch;
      expect_batch_matches_scalar(contexts, messages, batch);
      const std::uint64_t on_lanes =
          jobs >= MacBatch::kMinLaneJobs ? jobs : 0;
      EXPECT_EQ(batch.stats().lane_jobs, on_lanes) << jobs;
      EXPECT_EQ(batch.stats().scalar_jobs, jobs - on_lanes) << jobs;
    }
  }
}

TEST(MacBatch, RaggedLengthsUpTo64KiB) {
  // Lengths from empty to 65535 in one batch, around every padding
  // boundary, so lanes finish at very different passes and refill.
  util::SplitMix64 rng(2);
  auto contexts = contexts_for(MacAlgorithm::kKeyedMd5, 3, rng);
  auto hmac = contexts_for(MacAlgorithm::kHmacMd5, 3, rng);
  contexts.insert(contexts.end(), hmac.begin(), hmac.end());
  std::vector<Message> messages;
  for (const std::size_t n :
       {0u, 1u, 37u, 38u, 45u, 46u, 53u, 54u, 55u, 56u, 63u, 64u, 65u, 101u,
        102u, 117u, 118u, 119u, 120u, 128u, 1398u, 1408u, 4096u, 65535u}) {
    messages.push_back(
        {rng.next_bytes(10), rng.next_bytes(n), messages.size() % 6});
  }
  for (int i = 0; i < 20; ++i)
    messages.push_back({rng.next_bytes(rng.next_below(80)),
                        rng.next_bytes(rng.next_below(65536)),
                        rng.next_below(6)});
  MacBatch batch;
  expect_batch_matches_scalar(contexts, messages, batch);
  EXPECT_EQ(batch.stats().lane_jobs, messages.size());
}

TEST(MacBatch, Sha1AndNullJobsMixedIntoTheSameBatch) {
  util::SplitMix64 rng(3);
  std::vector<MacContext> contexts;
  for (const MacAlgorithm alg :
       {MacAlgorithm::kKeyedMd5, MacAlgorithm::kHmacMd5,
        MacAlgorithm::kKeyedSha1, MacAlgorithm::kHmacSha1,
        MacAlgorithm::kNull}) {
    auto more = contexts_for(alg, 2, rng);
    contexts.insert(contexts.end(), more.begin(), more.end());
  }
  std::vector<Message> messages;
  for (std::size_t i = 0; i < 40; ++i)
    messages.push_back({rng.next_bytes(10),
                        rng.next_bytes(rng.next_below(3000)),
                        i % contexts.size()});
  MacBatch batch;
  expect_batch_matches_scalar(contexts, messages, batch);
  // Four of the ten contexts are MD5.
  EXPECT_EQ(batch.stats().lane_jobs, 16u);
  EXPECT_EQ(batch.stats().scalar_jobs, 24u);
}

TEST(MacBatch, OneContextSharedByEveryJob) {
  // One flow's burst: every job reads the same saved state.
  util::SplitMix64 rng(4);
  auto contexts = contexts_for(MacAlgorithm::kKeyedMd5, 1, rng);
  std::vector<Message> messages;
  for (int i = 0; i < 16; ++i)
    messages.push_back({rng.next_bytes(10), rng.next_bytes(1408), 0});
  MacBatch batch;
  expect_batch_matches_scalar(contexts, messages, batch);
  // 16 equal messages of 23 blocks: two full rounds of eight lanes.
  EXPECT_EQ(batch.stats().passes, 2u * 23u);
}

TEST(MacBatch, LongPrefixesAndKeysHaveNoCap) {
  // Prefixes spanning several blocks, and keyed-prefix keys longer than a
  // block (the saved state then has whole blocks behind it).
  util::SplitMix64 rng(5);
  const auto keyed = make_mac(MacAlgorithm::kKeyedMd5);
  std::vector<MacContext> contexts;
  for (const std::size_t key_len : {0u, 1u, 63u, 64u, 100u, 200u})
    contexts.push_back(keyed->make_context(rng.next_bytes(key_len)));
  const auto hmac = make_mac(MacAlgorithm::kHmacMd5);
  contexts.push_back(hmac->make_context(rng.next_bytes(100)));
  std::vector<Message> messages;
  for (std::size_t i = 0; i < 30; ++i)
    messages.push_back({rng.next_bytes(rng.next_below(300)),
                        rng.next_bytes(rng.next_below(300)),
                        i % contexts.size()});
  MacBatch batch;
  expect_batch_matches_scalar(contexts, messages, batch);
}

TEST(MacBatch, EmptyBatchDoesNothing) {
  MacBatch batch;
  batch.compute({});
  EXPECT_EQ(batch.stats().passes, 0u);
  EXPECT_EQ(batch.stats().scalar_jobs, 0u);
}

}  // namespace
}  // namespace fbs::crypto
