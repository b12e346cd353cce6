#include "net/simnet.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <span>
#include <string>
#include <vector>

namespace fbs::net {
namespace {

const Ipv4Address kA = *Ipv4Address::parse("10.0.0.1");
const Ipv4Address kB = *Ipv4Address::parse("10.0.0.2");
const Ipv4Address kC = *Ipv4Address::parse("10.0.0.3");

class SimNetTest : public ::testing::Test {
 protected:
  util::VirtualClock clock_{0};
  SimNetwork net_{clock_, 7};
  std::vector<util::Bytes> at_a_, at_b_;

  void SetUp() override {
    net_.attach(kA, [this](std::span<const util::Bytes> f) {
      at_a_.insert(at_a_.end(), f.begin(), f.end());
    });
    net_.attach(kB, [this](std::span<const util::Bytes> f) {
      at_b_.insert(at_b_.end(), f.begin(), f.end());
    });
  }
};

TEST_F(SimNetTest, DeliversFrameAfterDelay) {
  net_.send(kA, kB, util::to_bytes("hello"));
  EXPECT_TRUE(at_b_.empty());  // nothing until the event is processed
  net_.run();
  ASSERT_EQ(at_b_.size(), 1u);
  EXPECT_EQ(at_b_[0], util::to_bytes("hello"));
  EXPECT_EQ(clock_.now(), util::TimeUs{200});  // default link delay
}

TEST_F(SimNetTest, PerPairLinkParametersApply) {
  LinkParams slow;
  slow.delay = util::seconds(2);
  net_.set_link(kA, kB, slow);
  net_.send(kA, kB, util::to_bytes("x"));
  net_.run();
  EXPECT_EQ(clock_.now(), util::seconds(2));
}

TEST_F(SimNetTest, UnknownDestinationCounted) {
  net_.send(kA, kC, util::to_bytes("void"));
  net_.run();
  EXPECT_EQ(net_.counters().no_such_host, 1u);
  EXPECT_TRUE(at_a_.empty());
  EXPECT_TRUE(at_b_.empty());
}

TEST_F(SimNetTest, LossDropsFraction) {
  LinkParams lossy;
  lossy.loss = 0.5;
  net_.set_default_link(lossy);
  constexpr int kFrames = 2000;
  for (int i = 0; i < kFrames; ++i) net_.send(kA, kB, util::to_bytes("p"));
  net_.run();
  EXPECT_GT(net_.counters().lost, kFrames / 3u);
  EXPECT_LT(net_.counters().lost, kFrames * 2u / 3);
  EXPECT_EQ(at_b_.size() + net_.counters().lost,
            static_cast<std::size_t>(kFrames));
}

TEST_F(SimNetTest, DuplicationDeliversTwice) {
  LinkParams dupy;
  dupy.duplicate = 1.0;  // always duplicate
  net_.set_default_link(dupy);
  net_.send(kA, kB, util::to_bytes("p"));
  net_.run();
  EXPECT_EQ(at_b_.size(), 2u);
  EXPECT_EQ(net_.counters().duplicated, 1u);
}

TEST_F(SimNetTest, JitterReordersFrames) {
  LinkParams jittery;
  jittery.delay = util::TimeUs{100};
  jittery.jitter = util::seconds(1);
  net_.set_default_link(jittery);
  for (int i = 0; i < 50; ++i) {
    util::Bytes frame{static_cast<std::uint8_t>(i)};
    net_.send(kA, kB, frame);
  }
  net_.run();
  ASSERT_EQ(at_b_.size(), 50u);
  bool reordered = false;
  for (std::size_t i = 1; i < at_b_.size(); ++i)
    if (at_b_[i][0] < at_b_[i - 1][0]) reordered = true;
  EXPECT_TRUE(reordered);
}

TEST_F(SimNetTest, DeterministicForSeed) {
  util::VirtualClock clock2{0};
  SimNetwork net2{clock2, 7};
  std::vector<util::Bytes> at_b2;
  net2.attach(kA, [](std::span<const util::Bytes>) {});
  net2.attach(kB, [&](std::span<const util::Bytes> f) {
    at_b2.insert(at_b2.end(), f.begin(), f.end());
  });
  LinkParams p;
  p.loss = 0.3;
  p.jitter = util::seconds(1);
  net_.set_default_link(p);
  net2.set_default_link(p);
  for (int i = 0; i < 100; ++i) {
    util::Bytes frame{static_cast<std::uint8_t>(i)};
    net_.send(kA, kB, frame);
    net2.send(kA, kB, frame);
  }
  net_.run();
  net2.run();
  EXPECT_EQ(at_b_, at_b2);
}

TEST_F(SimNetTest, TapObservesAndCanDrop) {
  std::vector<util::Bytes> captured;
  net_.set_tap([&](Ipv4Address, Ipv4Address, util::Bytes& frame) {
    captured.push_back(frame);
    return frame.size() > 2 ? SimNetwork::TapVerdict::kDrop
                            : SimNetwork::TapVerdict::kPass;
  });
  net_.send(kA, kB, util::to_bytes("ok"));
  net_.send(kA, kB, util::to_bytes("blocked"));
  net_.run();
  EXPECT_EQ(captured.size(), 2u);
  EXPECT_EQ(at_b_.size(), 1u);
  EXPECT_EQ(net_.counters().tap_dropped, 1u);
}

TEST_F(SimNetTest, TapCanModifyInFlight) {
  net_.set_tap([](Ipv4Address, Ipv4Address, util::Bytes& frame) {
    frame[0] ^= 0xFF;  // man-in-the-middle bit flip
    return SimNetwork::TapVerdict::kPass;
  });
  net_.send(kA, kB, util::Bytes{0x00, 0x01});
  net_.run();
  ASSERT_EQ(at_b_.size(), 1u);
  EXPECT_EQ(at_b_[0][0], 0xFF);
}

TEST_F(SimNetTest, InjectBypassesTapAndLink) {
  LinkParams total_loss;
  total_loss.loss = 1.0;
  net_.set_default_link(total_loss);
  net_.set_tap([](Ipv4Address, Ipv4Address, util::Bytes&) {
    return SimNetwork::TapVerdict::kDrop;
  });
  net_.inject(kB, util::to_bytes("attacker frame"));
  net_.run();
  ASSERT_EQ(at_b_.size(), 1u);  // delivered despite loss=1.0 and tap drop
}

TEST_F(SimNetTest, BandwidthSerializesBackToBackFrames) {
  LinkParams ethernet;
  ethernet.delay = 0;
  ethernet.bandwidth_bps = 1e6;  // 1 Mb/s: a 1000B frame takes 8 ms
  net_.set_default_link(ethernet);
  std::vector<util::TimeUs> arrivals;
  net_.attach(kC, [&](std::span<const util::Bytes> f) {
    arrivals.insert(arrivals.end(), f.size(), clock_.now());
  });
  net_.send(kA, kC, util::Bytes(1000, 'x'));
  net_.send(kA, kC, util::Bytes(1000, 'x'));  // queued behind the first
  net_.run();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_EQ(arrivals[0], util::TimeUs{8'000});
  EXPECT_EQ(arrivals[1], util::TimeUs{16'000});  // serialized, not parallel
}

TEST_F(SimNetTest, BandwidthZeroMeansInfinite) {
  LinkParams instant;
  instant.delay = util::TimeUs{10};
  net_.set_default_link(instant);
  net_.send(kA, kB, util::Bytes(100000, 'x'));
  net_.run();
  EXPECT_EQ(clock_.now(), util::TimeUs{10});  // no serialization time
}

TEST_F(SimNetTest, TenMegabitEthernetThroughput) {
  // The paper's wire: ~1.2ms per 1500B frame => ~820 frames/sec.
  LinkParams tenmb;
  tenmb.delay = 0;
  tenmb.bandwidth_bps = 10e6;
  net_.set_default_link(tenmb);
  constexpr int kFrames = 100;
  int delivered = 0;
  net_.attach(kC, [&](std::span<const util::Bytes> f) { delivered += f.size(); });
  for (int i = 0; i < kFrames; ++i) net_.send(kA, kC, util::Bytes(1500, 'x'));
  net_.run();
  EXPECT_EQ(delivered, kFrames);
  const double seconds = static_cast<double>(clock_.now()) / 1e6;
  const double bps = kFrames * 1500 * 8 / seconds;
  EXPECT_NEAR(bps, 10e6, 0.05e6);
}

TEST_F(SimNetTest, StepBatchesDueFramesForOneHostUpToATimer) {
  // One step() hands a host the first pending frame plus every frame queued
  // right behind it that is due and addressed to the same host. A timer,
  // another host or a frame not yet due ends the batch, so every event
  // still runs in (time, sequence) order.
  std::vector<std::string> log;
  const auto sink = [&log](std::string host) {
    return [&log, host](std::span<const util::Bytes> frames) {
      std::string entry = host;
      for (const util::Bytes& f : frames)
        entry += ":" + std::string(f.begin(), f.end());
      log.push_back(entry);
    };
  };
  net_.attach(kB, sink("B"));
  net_.attach(kC, sink("C"));
  net_.inject(kB, util::to_bytes("1"));
  net_.inject(kB, util::to_bytes("2"));
  net_.call_later(util::TimeUs{0}, [&] { log.push_back("timer"); });
  net_.inject(kB, util::to_bytes("3"));
  net_.inject(kC, util::to_bytes("4"));
  net_.inject(kB, util::to_bytes("5"));
  net_.inject(kB, util::to_bytes("6"), util::TimeUs{10});
  net_.inject(kB, util::to_bytes("7"), util::TimeUs{10});
  net_.inject(kB, util::to_bytes("8"), util::TimeUs{20});

  std::size_t steps = 0;
  while (net_.step()) ++steps;
  EXPECT_EQ(log, (std::vector<std::string>{"B:1:2", "timer", "B:3", "C:4",
                                           "B:5", "B:6:7", "B:8"}));
  EXPECT_EQ(steps, log.size());
  EXPECT_EQ(clock_.now(), util::TimeUs{20});
  EXPECT_EQ(net_.counters().delivered, 8u);
  EXPECT_EQ(net_.counters().in_flight, 0u);
}

TEST_F(SimNetTest, StepBatchesOverdueFramesAndSurvivesASendingSink) {
  // Frames whose time has passed by the time they are stepped are all due
  // together. A sink that sends while it holds the batch queues the new
  // frame behind the batch, for the next step.
  net_.inject(kB, util::to_bytes("1"), util::TimeUs{5});
  net_.inject(kB, util::to_bytes("2"), util::TimeUs{7});
  clock_.set(util::TimeUs{10});
  std::vector<std::size_t> batches;
  std::vector<std::string> got;
  net_.attach(kB, [&](std::span<const util::Bytes> frames) {
    batches.push_back(frames.size());
    for (const util::Bytes& f : frames) got.emplace_back(f.begin(), f.end());
    if (got.size() == 2) net_.inject(kB, util::to_bytes("3"));
  });
  net_.run();
  EXPECT_EQ(batches, (std::vector<std::size_t>{2, 1}));
  EXPECT_EQ(got, (std::vector<std::string>{"1", "2", "3"}));
}

TEST_F(SimNetTest, StepReturnsFalseWhenIdle) {
  EXPECT_FALSE(net_.step());
  net_.send(kA, kB, util::to_bytes("x"));
  EXPECT_TRUE(net_.step());
  EXPECT_FALSE(net_.step());
}

TEST_F(SimNetTest, BurstLossDropsRunsOfFrames) {
  // Gilbert-Elliott: stationary bad-state probability is
  // enter/(enter+exit) = 0.2, and the bad state drops everything while
  // good-state loss stays zero.
  LinkParams bursty;
  bursty.burst_enter = 0.05;
  bursty.burst_exit = 0.2;
  bursty.burst_loss = 1.0;
  net_.set_default_link(bursty);
  constexpr int kFrames = 2000;
  for (int i = 0; i < kFrames; ++i) net_.send(kA, kB, util::to_bytes("p"));
  net_.run();
  EXPECT_GT(net_.counters().burst_lost, kFrames / 20u);
  EXPECT_LT(net_.counters().burst_lost, kFrames * 2u / 5);
  EXPECT_EQ(net_.counters().lost, 0u);  // i.i.d. loss is off
  EXPECT_EQ(at_b_.size() + net_.counters().burst_lost,
            static_cast<std::size_t>(kFrames));
}

TEST_F(SimNetTest, BurstEnterZeroKeepsIidModel) {
  LinkParams plain;
  plain.loss = 0.5;
  plain.burst_loss = 1.0;  // irrelevant: the chain never leaves good state
  net_.set_default_link(plain);
  for (int i = 0; i < 500; ++i) net_.send(kA, kB, util::to_bytes("p"));
  net_.run();
  EXPECT_GT(net_.counters().lost, 0u);
  EXPECT_EQ(net_.counters().burst_lost, 0u);
}

TEST_F(SimNetTest, CorruptionFlipsExactlyOneBit) {
  LinkParams noisy;
  noisy.corrupt = 1.0;
  net_.set_default_link(noisy);
  net_.send(kA, kB, util::Bytes(64, 0x00));
  net_.run();
  ASSERT_EQ(at_b_.size(), 1u);
  EXPECT_EQ(net_.counters().corrupted, 1u);
  int flipped = 0;
  for (std::uint8_t byte : at_b_[0]) flipped += std::popcount(byte);
  EXPECT_EQ(flipped, 1);
}

TEST_F(SimNetTest, TapSeesFrameBeforeCorruption) {
  // The tap observes the sender's true wire bytes; corruption happens on
  // the link after it. Leak checks in chaos tests depend on this order.
  LinkParams noisy;
  noisy.corrupt = 1.0;
  net_.set_default_link(noisy);
  const util::Bytes original(32, 0x55);
  util::Bytes tapped;
  net_.set_tap([&](Ipv4Address, Ipv4Address, util::Bytes& frame) {
    tapped = frame;
    return SimNetwork::TapVerdict::kPass;
  });
  net_.send(kA, kB, original);
  net_.run();
  EXPECT_EQ(tapped, original);
  ASSERT_EQ(at_b_.size(), 1u);
  EXPECT_NE(at_b_[0], original);
}

TEST_F(SimNetTest, PartitionWindowDropsThenHeals) {
  net_.partition(kA, kB, util::TimeUs{0}, util::seconds(1));
  net_.send(kA, kB, util::to_bytes("cut"));
  net_.run();
  EXPECT_TRUE(at_b_.empty());
  EXPECT_EQ(net_.counters().partition_dropped, 1u);
  clock_.set(util::seconds(1));  // window over (and pruned on next check)
  net_.send(kA, kB, util::to_bytes("healed"));
  net_.run();
  ASSERT_EQ(at_b_.size(), 1u);
  EXPECT_EQ(at_b_[0], util::to_bytes("healed"));
}

TEST_F(SimNetTest, HostPartitionCutsEveryLink) {
  net_.attach(kC, [](std::span<const util::Bytes>) {});
  net_.partition_host(kB, util::TimeUs{0}, util::seconds(1));
  net_.send(kA, kB, util::to_bytes("to the dark host"));
  net_.send(kB, kA, util::to_bytes("from the dark host"));
  net_.send(kA, kC, util::to_bytes("unrelated pair"));
  net_.run();
  EXPECT_TRUE(at_b_.empty());
  EXPECT_TRUE(at_a_.empty());
  EXPECT_EQ(net_.counters().partition_dropped, 2u);
  EXPECT_EQ(net_.counters().delivered, 1u);  // a -> c unaffected
}

TEST_F(SimNetTest, ClearPartitionsRestoresImmediately) {
  net_.partition(kA, kB, util::TimeUs{0}, util::seconds(10));
  net_.clear_partitions();
  net_.send(kA, kB, util::to_bytes("x"));
  net_.run();
  EXPECT_EQ(at_b_.size(), 1u);
}

TEST_F(SimNetTest, DetachStopsDelivery) {
  net_.detach(kB);
  net_.send(kA, kB, util::to_bytes("x"));
  net_.run();
  EXPECT_TRUE(at_b_.empty());
  EXPECT_EQ(net_.counters().no_such_host, 1u);
}

}  // namespace
}  // namespace fbs::net
