// Queue discipline unit tests (transit-router egress, link_queue.hpp).
#include <gtest/gtest.h>

#include "support/link_queue.hpp"

namespace fbs::net {
namespace {

util::Bytes frame(std::size_t n = 64) { return util::Bytes(n, 0xab); }

TEST(LinkQueueTest, FifoAcceptsUntilCapacityThenTailDrops) {
  util::SplitMix64 rng(1);
  QueueParams p;
  p.capacity = 4;
  LinkQueue q(p, rng);
  for (int i = 0; i < 4; ++i)
    EXPECT_EQ(q.push(frame(), util::TimeUs{0}), LinkQueue::Enqueue::kAccepted);
  EXPECT_EQ(q.push(frame(), util::TimeUs{0}), LinkQueue::Enqueue::kTailDrop);
  EXPECT_EQ(q.push(frame(), util::TimeUs{0}), LinkQueue::Enqueue::kTailDrop);
  EXPECT_EQ(q.depth(), 4u);
  EXPECT_EQ(q.stats().enqueued, 4u);
  EXPECT_EQ(q.stats().tail_dropped, 2u);
  EXPECT_EQ(q.stats().highwater, 4u);
}

TEST(LinkQueueTest, PopPreservesOrderAndEnqueueTime) {
  util::SplitMix64 rng(1);
  LinkQueue q(QueueParams{}, rng);
  q.push(util::Bytes{1}, util::TimeUs{10});
  q.push(util::Bytes{2}, util::TimeUs{20});
  auto first = q.pop();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->frame, util::Bytes{1});
  EXPECT_EQ(first->enqueued_at, util::TimeUs{10});
  auto second = q.pop();
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->frame, util::Bytes{2});
  EXPECT_FALSE(q.pop().has_value());
  EXPECT_EQ(q.stats().dequeued, 2u);
}

TEST(LinkQueueTest, RedLeavesShortQueuesAlone) {
  util::SplitMix64 rng(7);
  QueueParams p;
  p.discipline = QueueDiscipline::kRed;
  p.capacity = 64;  // min threshold 16
  LinkQueue q(p, rng);
  // Oscillate below the min threshold: RED must never drop.
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 8; ++i) q.push(frame(), util::TimeUs{0});
    while (q.pop()) {
    }
  }
  EXPECT_EQ(q.stats().red_dropped, 0u);
  EXPECT_EQ(q.stats().tail_dropped, 0u);
}

TEST(LinkQueueTest, RedDropsEarlyUnderSustainedBacklog) {
  util::SplitMix64 rng(7);
  QueueParams p;
  p.discipline = QueueDiscipline::kRed;
  p.capacity = 64;  // thresholds 16 / 48
  LinkQueue q(p, rng);
  // A standing queue between the thresholds: drops must start before the
  // hard capacity is ever reached.
  std::uint64_t offered = 0;
  for (int i = 0; i < 200 && q.depth() < 46; ++i, ++offered)
    q.push(frame(), util::TimeUs{0});
  EXPECT_GT(q.stats().red_dropped, 0u);
  EXPECT_EQ(q.stats().tail_dropped, 0u);  // never filled to capacity
  EXPECT_LT(q.stats().highwater, p.capacity);
  EXPECT_EQ(q.stats().enqueued + q.stats().red_dropped, offered);
}

TEST(LinkQueueTest, RedHardDropsOnceAverageReachesMaxThreshold) {
  util::SplitMix64 rng(7);
  QueueParams p;
  p.discipline = QueueDiscipline::kRed;
  p.capacity = 16;
  p.red_min_threshold = 2;
  p.red_max_threshold = 4;
  p.red_weight = 1.0;  // average == instantaneous depth
  p.red_max_p = 0.0;   // no probabilistic region: isolate the hard drop
  LinkQueue q(p, rng);
  for (int i = 0; i < 10; ++i) q.push(frame(), util::TimeUs{0});
  // Depths 0..3 accepted; from depth 4 the average sits at max: hard drop.
  EXPECT_EQ(q.depth(), 4u);
  EXPECT_EQ(q.stats().red_dropped, 6u);
}

TEST(LinkQueueTest, BackpressureWatermarksDeriveFromCapacityAndTrack) {
  util::SplitMix64 rng(1);
  QueueParams p;
  p.discipline = QueueDiscipline::kBackpressure;
  p.capacity = 16;  // high 12, low 4
  LinkQueue q(p, rng);
  EXPECT_TRUE(q.below_low());
  for (int i = 0; i < 11; ++i) q.push(frame(), util::TimeUs{0});
  EXPECT_FALSE(q.above_high());
  q.push(frame(), util::TimeUs{0});
  EXPECT_TRUE(q.above_high());
  while (q.depth() > 4) q.pop();
  EXPECT_FALSE(q.above_high());
  EXPECT_TRUE(q.below_low());
}

TEST(LinkQueueTest, BackpressureStillTailDropsAtHardCapacity) {
  util::SplitMix64 rng(1);
  QueueParams p;
  p.discipline = QueueDiscipline::kBackpressure;
  p.capacity = 8;
  LinkQueue q(p, rng);
  for (int i = 0; i < 12; ++i) q.push(frame(), util::TimeUs{0});
  EXPECT_EQ(q.depth(), 8u);
  EXPECT_EQ(q.stats().tail_dropped, 4u);
  EXPECT_EQ(q.stats().red_dropped, 0u);
}

TEST(LinkQueueTest, WipeEmptiesCountsAndResetsRedState) {
  util::SplitMix64 rng(7);
  QueueParams p;
  p.discipline = QueueDiscipline::kRed;
  p.capacity = 32;
  LinkQueue q(p, rng);
  for (int i = 0; i < 20; ++i) q.push(frame(), util::TimeUs{0});
  EXPECT_GT(q.red_avg(), 0.0);
  const std::size_t depth = q.depth();
  EXPECT_EQ(q.wipe(), depth);
  EXPECT_EQ(q.depth(), 0u);
  EXPECT_EQ(q.stats().wiped, depth);
  EXPECT_EQ(q.red_avg(), 0.0);  // no phantom congestion after a restart
  // Conservation: every accepted frame is dequeued, wiped, or still queued.
  EXPECT_EQ(q.stats().enqueued,
            q.stats().dequeued + q.stats().wiped + q.depth());
}

TEST(LinkQueueTest, ZeroCapacityClampsToOne) {
  util::SplitMix64 rng(1);
  QueueParams p;
  p.capacity = 0;
  LinkQueue q(p, rng);
  EXPECT_EQ(q.capacity(), 1u);
  EXPECT_EQ(q.push(frame(), util::TimeUs{0}), LinkQueue::Enqueue::kAccepted);
  EXPECT_EQ(q.push(frame(), util::TimeUs{0}), LinkQueue::Enqueue::kTailDrop);
}

}  // namespace
}  // namespace fbs::net
