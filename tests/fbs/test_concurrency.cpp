// ThreadSanitizer stress suite (ctest label: tsan). Hammers the re-entrant
// engine and the receive pipeline from many threads at once; run under
// -DFBS_TSAN=ON these tests are the data-race detectors for the sharded
// datagram path. The assertions double as conservation checks, so the suite
// is also meaningful in a plain build.
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>
#include <vector>

#include "fbs/engine.hpp"
#include "fbs/pipeline.hpp"
#include "obs/metrics.hpp"
#include "support/world.hpp"
#include "util/ring.hpp"

namespace fbs::core {
namespace {

using testing::TestWorld;

constexpr int kThreads = 8;

Datagram datagram(const Principal& src, const Principal& dst,
                  util::Bytes body, std::uint16_t sport) {
  Datagram d;
  d.source = src;
  d.destination = dst;
  d.attrs.protocol = 17;
  d.attrs.source_address = src.ipv4().value;
  d.attrs.source_port = sport;
  d.attrs.destination_address = dst.ipv4().value;
  d.attrs.destination_port = 9;
  d.body = std::move(body);
  return d;
}

class ConcurrencyTest : public ::testing::Test {
 protected:
  ConcurrencyTest()
      : world_(1111),
        a_(world_.add_node("a", "10.0.0.1")),
        b_(world_.add_node("b", "10.0.0.2")) {}

  static FbsConfig sharded(std::size_t shards, bool strict_replay = false) {
    FbsConfig config;
    config.shards = shards;
    config.strict_replay = strict_replay;
    return config;
  }

  TestWorld world_;
  TestWorld::Node& a_;
  TestWorld::Node& b_;
};

TEST_F(ConcurrencyTest, ManyFlowsFromManyThreadsAllRoundTrip) {
  FbsEndpoint sender(a_.principal, sharded(8), *a_.keys, world_.clock,
                     world_.rng);
  FbsEndpoint receiver(b_.principal, sharded(8), *b_.keys, world_.clock,
                       world_.rng);
  // Prime the pair master key single-threaded so the threads race on the
  // datagram path, not on the (deliberately serial) keying upcall.
  ASSERT_TRUE(sender
                  .protect(datagram(a_.principal, b_.principal,
                                    util::to_bytes("prime"), 999),
                           true)
                  .has_value());

  constexpr int kPerThread = 200;
  std::atomic<int> accepted{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      WorkContext send_ctx, recv_ctx;
      util::Bytes wire, body;
      for (int i = 0; i < kPerThread; ++i) {
        // Each thread cycles through its own four flows.
        const auto port = static_cast<std::uint16_t>(1 + t * 4 + i % 4);
        const util::Bytes payload =
            util::to_bytes("t" + std::to_string(t) + " i" + std::to_string(i));
        const Datagram d = datagram(a_.principal, b_.principal, payload, port);
        ASSERT_TRUE(sender.protect_into(send_ctx, d, true, wire));
        const auto outcome =
            receiver.unprotect_into(recv_ctx, a_.principal, wire, body);
        ASSERT_TRUE(std::holds_alternative<ReceivedInfo>(outcome));
        ASSERT_EQ(body, payload);
        accepted.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& t : threads) t.join();

  constexpr std::uint64_t kTotal = kThreads * kPerThread;
  EXPECT_EQ(accepted.load(), static_cast<int>(kTotal));
  EXPECT_EQ(sender.send_stats().datagrams, kTotal + 1);  // +1 for the primer
  EXPECT_EQ(receiver.receive_stats().accepted, kTotal);
  EXPECT_EQ(receiver.receive_stats().rejected(), 0u);
}

TEST_F(ConcurrencyTest, OneFlowHammeredFromManyThreads) {
  // Worst case for the domain lock: every thread contends on one shard.
  FbsEndpoint sender(a_.principal, sharded(8), *a_.keys, world_.clock,
                     world_.rng);
  FbsEndpoint receiver(b_.principal, sharded(8), *b_.keys, world_.clock,
                       world_.rng);
  ASSERT_TRUE(sender
                  .protect(datagram(a_.principal, b_.principal,
                                    util::to_bytes("prime"), 7),
                           true)
                  .has_value());

  constexpr int kPerThread = 150;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      WorkContext send_ctx, recv_ctx;
      util::Bytes wire, body;
      const util::Bytes payload = util::to_bytes("same flow");
      const Datagram d = datagram(a_.principal, b_.principal, payload, 7);
      for (int i = 0; i < kPerThread; ++i) {
        ASSERT_TRUE(sender.protect_into(send_ctx, d, true, wire));
        const auto outcome =
            receiver.unprotect_into(recv_ctx, a_.principal, wire, body);
        ASSERT_TRUE(std::holds_alternative<ReceivedInfo>(outcome));
        ASSERT_EQ(body, payload);
      }
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(receiver.receive_stats().accepted,
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  // One flow, one key derivation -- the cached context served every thread.
  EXPECT_EQ(sender.send_stats().flow_keys_derived, 1u);
}

TEST_F(ConcurrencyTest, ConcurrentReplayAcceptedExactlyOnce) {
  // The satellite fix under test: replay check+commit is one atomic step
  // under the shard lock, so the same strict-replay wire racing itself from
  // eight threads is accepted exactly once.
  FbsEndpoint sender(a_.principal, sharded(8), *a_.keys, world_.clock,
                     world_.rng);
  FbsEndpoint receiver(b_.principal, sharded(8, /*strict_replay=*/true),
                       *b_.keys, world_.clock, world_.rng);
  const auto wire = sender.protect(
      datagram(a_.principal, b_.principal, util::to_bytes("exactly once"), 1),
      true);
  ASSERT_TRUE(wire.has_value());

  std::atomic<int> accepted{0}, replays{0}, other{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      WorkContext ctx;
      util::Bytes body;
      const auto outcome =
          receiver.unprotect_into(ctx, a_.principal, *wire, body);
      if (std::holds_alternative<ReceivedInfo>(outcome))
        accepted.fetch_add(1, std::memory_order_relaxed);
      else if (std::get<ReceiveError>(outcome) == ReceiveError::kReplay)
        replays.fetch_add(1, std::memory_order_relaxed);
      else
        other.fetch_add(1, std::memory_order_relaxed);
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(accepted.load(), 1);
  EXPECT_EQ(replays.load(), kThreads - 1);
  EXPECT_EQ(other.load(), 0);
  EXPECT_EQ(receiver.receive_stats().accepted, 1u);
  EXPECT_EQ(receiver.receive_stats().rejected_replay,
            static_cast<std::uint64_t>(kThreads - 1));
}

TEST_F(ConcurrencyTest, SflAllocationUniqueAcrossThreads) {
  SflAllocator alloc(world_.rng);
  constexpr int kPerThread = 2000;
  std::vector<std::vector<Sfl>> seen(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      seen[t].reserve(kPerThread);
      for (int i = 0; i < kPerThread; ++i) seen[t].push_back(alloc.allocate());
    });
  }
  for (auto& t : threads) t.join();
  std::set<Sfl> all;
  for (const auto& v : seen) all.insert(v.begin(), v.end());
  EXPECT_EQ(all.size(),
            static_cast<std::size_t>(kThreads) * kPerThread);
}

TEST_F(ConcurrencyTest, ConcurrentSubmittersThroughThePipeline) {
  FbsEndpoint sender(a_.principal, FbsConfig{}, *a_.keys, world_.clock,
                     world_.rng);
  FbsEndpoint receiver(b_.principal, sharded(8), *b_.keys, world_.clock,
                       world_.rng);
  PipelineConfig pc;
  pc.workers = 4;
  DatagramPipeline pipe(receiver, pc);

  // Pre-protect the wires so the submitter threads do nothing but submit.
  constexpr int kSubmitters = 4;
  constexpr int kPerSubmitter = 100;
  net::Ipv4Header h;
  h.protocol = 17;
  h.source = a_.principal.ipv4();
  h.destination = b_.principal.ipv4();

  std::vector<std::vector<DatagramPipeline::Submission>> wires(kSubmitters);
  for (int s = 0; s < kSubmitters; ++s)
    for (int i = 0; i < kPerSubmitter; ++i) {
      const auto wire = sender.protect(
          datagram(a_.principal, b_.principal, world_.rng.next_bytes(64),
                   static_cast<std::uint16_t>(1 + s * kPerSubmitter + i)),
          true);
      ASSERT_TRUE(wire.has_value());
      wires[s].push_back({h, *wire});
    }

  std::atomic<std::uint64_t> pushed{0};
  std::vector<std::thread> submitters;
  for (int s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&, s] {
      for (auto& sub : wires[s])
        pushed.fetch_add(pipe.submit({&sub, 1}), std::memory_order_relaxed);
    });
  }
  std::atomic<std::uint64_t> delivered{0};
  // Drain concurrently with submission: drain() is single-consumer but may
  // overlap submit()/workers freely.
  while (delivered.load(std::memory_order_relaxed) +
             pipe.stats().backpressure_drops.load() +
             pipe.stats().rejected.load() <
         static_cast<std::uint64_t>(kSubmitters) * kPerSubmitter) {
    pipe.drain([&](const net::Ipv4Header&, util::Bytes) {
      delivered.fetch_add(1, std::memory_order_relaxed);
    });
    std::this_thread::yield();
  }
  for (auto& t : submitters) t.join();

  // Conservation: submitted == accepted + rejected + backpressure drops,
  // and everything accepted was drained.
  const auto& st = pipe.stats();
  EXPECT_EQ(st.submitted.load(),
            static_cast<std::uint64_t>(kSubmitters) * kPerSubmitter);
  EXPECT_EQ(st.rejected.load(), 0u);
  EXPECT_EQ(st.submitted.load(),
            st.accepted.load() + st.rejected.load() +
                st.backpressure_drops.load());
  EXPECT_EQ(delivered.load(), st.accepted.load());
  EXPECT_EQ(pushed.load(), st.accepted.load());
  EXPECT_EQ(pipe.in_flight(), 0u);
}

TEST_F(ConcurrencyTest, ConcurrentBatchProducersKeepPerProducerFifo) {
  // The batched ring entry points under producer contention: every thread
  // pushes bursts of mixed sizes with push_wait_batch while one consumer
  // drains with pop_batch. Nothing may be lost, duplicated or reordered
  // within a producer.
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 3000;
  util::BoundedMpscRing<int> ring(64);
  std::atomic<bool> cancel{false};
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      std::vector<int> burst;
      int next = 0;
      while (next < kPerProducer) {
        // Burst sizes 1..13 -- wider than a ring's free space at times, so
        // push_wait_batch exercises its chunked blocking path.
        const int n = std::min(kPerProducer - next, 1 + (next % 13));
        burst.clear();
        for (int i = 0; i < n; ++i)
          burst.push_back(p * kPerProducer + next++);
        ASSERT_EQ(ring.push_wait_batch({burst.data(), burst.size()}, cancel),
                  burst.size());
      }
    });
  }
  std::vector<int> last_seen(kProducers, -1);
  std::vector<int> popped;
  popped.reserve(32);
  int received = 0;
  while (received < kProducers * kPerProducer) {
    popped.clear();
    const std::size_t n = ring.pop_batch(popped, 32);
    if (n == 0) {
      std::this_thread::yield();
      continue;
    }
    for (const int v : popped) {
      const int producer = v / kPerProducer;
      const int seq = v % kPerProducer;
      ASSERT_GT(seq, last_seen[producer]);
      last_seen[producer] = seq;
    }
    received += static_cast<int>(n);
  }
  for (auto& t : producers) t.join();
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_EQ(ring.dropped(), 0u);
  EXPECT_EQ(ring.cancelled_dropped(), 0u);
}

TEST_F(ConcurrencyTest, ConcurrentBatchSubmittersThroughThePipeline) {
  // Grouped submits from several threads racing the workers and a
  // concurrent batched drain: the TSan detector for the grouped-ingress
  // path.
  FbsEndpoint sender(a_.principal, FbsConfig{}, *a_.keys, world_.clock,
                     world_.rng);
  FbsEndpoint receiver(b_.principal, sharded(8), *b_.keys, world_.clock,
                       world_.rng);
  PipelineConfig pc;
  pc.workers = 4;
  pc.batch = 8;
  DatagramPipeline pipe(receiver, pc);

  constexpr int kSubmitters = 4;
  constexpr int kPerSubmitter = 96;
  net::Ipv4Header h;
  h.protocol = 17;
  h.source = a_.principal.ipv4();
  h.destination = b_.principal.ipv4();

  std::vector<std::vector<DatagramPipeline::Submission>> wires(kSubmitters);
  for (int s = 0; s < kSubmitters; ++s)
    for (int i = 0; i < kPerSubmitter; ++i) {
      const auto wire = sender.protect(
          datagram(a_.principal, b_.principal, world_.rng.next_bytes(64),
                   static_cast<std::uint16_t>(1 + (s * kPerSubmitter + i) % 32)),
          true);
      ASSERT_TRUE(wire.has_value());
      wires[s].push_back({h, *wire});
    }

  std::atomic<std::uint64_t> pushed{0};
  std::vector<std::thread> submitters;
  for (int s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&, s] {
      auto& mine = wires[s];
      for (std::size_t at = 0; at < mine.size(); at += 10) {
        const std::size_t n = std::min<std::size_t>(10, mine.size() - at);
        pushed.fetch_add(pipe.submit({mine.data() + at, n}),
                         std::memory_order_relaxed);
      }
    });
  }
  std::atomic<std::uint64_t> delivered{0};
  while (delivered.load(std::memory_order_relaxed) +
             pipe.stats().backpressure_drops.load() +
             pipe.stats().rejected.load() <
         static_cast<std::uint64_t>(kSubmitters) * kPerSubmitter) {
    pipe.drain([&](const net::Ipv4Header&, util::Bytes) {
      delivered.fetch_add(1, std::memory_order_relaxed);
    });
    std::this_thread::yield();
  }
  for (auto& t : submitters) t.join();

  const auto& st = pipe.stats();
  EXPECT_EQ(st.submitted.load(),
            static_cast<std::uint64_t>(kSubmitters) * kPerSubmitter);
  EXPECT_EQ(st.rejected.load(), 0u);
  EXPECT_EQ(st.submitted.load(), st.accepted.load() + st.rejected.load() +
                                     st.backpressure_drops.load());
  EXPECT_EQ(delivered.load(), st.accepted.load());
  EXPECT_EQ(pushed.load(), st.accepted.load());
  EXPECT_EQ(pipe.in_flight(), 0u);
  EXPECT_EQ(pipe.buffer_pool().stats().heap_fallbacks, 0u);
}

TEST_F(ConcurrencyTest, StopRacingBatchSubmittersStaysConserved) {
  // The shutdown-accounting fix under fire: stop() lands while batch
  // submitters are mid-burst and nobody has drained. drain_all() must
  // terminate and the conservation equation must balance no matter where
  // each datagram was caught.
  FbsEndpoint sender(a_.principal, FbsConfig{}, *a_.keys, world_.clock,
                     world_.rng);
  FbsEndpoint receiver(b_.principal, sharded(8), *b_.keys, world_.clock,
                       world_.rng);
  PipelineConfig pc;
  pc.workers = 2;
  pc.batch = 4;
  pc.egress_capacity = 2;  // tiny: workers wedge on egress fast
  DatagramPipeline pipe(receiver, pc);

  constexpr int kSubmitters = 4;
  constexpr int kPerSubmitter = 64;
  net::Ipv4Header h;
  h.protocol = 17;
  h.source = a_.principal.ipv4();
  h.destination = b_.principal.ipv4();

  std::vector<std::vector<DatagramPipeline::Submission>> wires(kSubmitters);
  for (int s = 0; s < kSubmitters; ++s)
    for (int i = 0; i < kPerSubmitter; ++i) {
      const auto wire = sender.protect(
          datagram(a_.principal, b_.principal, world_.rng.next_bytes(32),
                   static_cast<std::uint16_t>(1 + i % 16)),
          true);
      ASSERT_TRUE(wire.has_value());
      wires[s].push_back({h, *wire});
    }

  std::vector<std::thread> submitters;
  for (int s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&, s] {
      auto& mine = wires[s];
      for (std::size_t at = 0; at < mine.size(); at += 8)
        pipe.submit({mine.data() + at,
                     std::min<std::size_t>(8, mine.size() - at)});
    });
  }
  // Stop as soon as some work is in the system; submitters keep racing.
  while (pipe.stats().accepted.load() < 2) std::this_thread::yield();
  pipe.stop();
  for (auto& t : submitters) t.join();

  std::uint64_t delivered = 0;
  pipe.drain_all([&](const net::Ipv4Header&, util::Bytes) { ++delivered; });

  const auto& st = pipe.stats();
  EXPECT_EQ(st.submitted.load(),
            static_cast<std::uint64_t>(kSubmitters) * kPerSubmitter);
  EXPECT_EQ(st.submitted.load(),
            st.backpressure_drops.load() + st.rejected.load() +
                st.drained.load() + st.egress_dropped.load() +
                st.shutdown_discards.load());
  EXPECT_EQ(st.accepted.load(),
            st.drained.load() + st.egress_dropped.load());
  EXPECT_EQ(st.drained.load(), delivered);
  EXPECT_EQ(pipe.in_flight(), 0u);
}

TEST_F(ConcurrencyTest, MetricsSnapshotsRaceTrafficSafely) {
  FbsEndpoint sender(a_.principal, sharded(4), *a_.keys, world_.clock,
                     world_.rng);
  FbsEndpoint receiver(b_.principal, sharded(4), *b_.keys, world_.clock,
                       world_.rng);
  ASSERT_TRUE(sender
                  .protect(datagram(a_.principal, b_.principal,
                                    util::to_bytes("prime"), 999),
                           true)
                  .has_value());
  obs::MetricsRegistry reg;
  sender.register_metrics(reg, "send");
  receiver.register_metrics(reg, "recv");

  std::atomic<bool> done{false};
  std::vector<std::thread> traffic;
  for (int t = 0; t < 4; ++t) {
    traffic.emplace_back([&, t] {
      WorkContext send_ctx, recv_ctx;
      util::Bytes wire, body;
      for (int i = 0; i < 300; ++i) {
        const Datagram d =
            datagram(a_.principal, b_.principal, util::to_bytes("m"),
                     static_cast<std::uint16_t>(1 + t));
        ASSERT_TRUE(sender.protect_into(send_ctx, d, true, wire));
        ASSERT_TRUE(std::holds_alternative<ReceivedInfo>(
            receiver.unprotect_into(recv_ctx, a_.principal, wire, body)));
      }
    });
  }
  // Snapshot continuously while the traffic runs; accepted must be
  // monotonic across snapshots (the aggregators lock each domain).
  std::uint64_t last = 0;
  while (!done.load(std::memory_order_relaxed)) {
    const auto snap = reg.snapshot();
    const auto it = snap.counters.find("recv.recv.accepted");
    ASSERT_NE(it, snap.counters.end());
    EXPECT_GE(it->second, last);
    last = it->second;
    if (last >= 4 * 300) break;
  }
  for (auto& t : traffic) t.join();
  EXPECT_EQ(receiver.receive_stats().accepted, 4u * 300u);
}

TEST_F(ConcurrencyTest, ConcurrentStatsReadersRaceTrafficSafely) {
  // Two readers -- one calling receive_stats() directly, one taking
  // registry snapshots (which aggregate through the same accessors) -- run
  // against each other and against live traffic. The accessors return
  // their sums by value, so the readers share no staging state; under
  // -DFBS_TSAN=ON this is the regression test for that.
  FbsEndpoint sender(a_.principal, sharded(4), *a_.keys, world_.clock,
                     world_.rng);
  FbsEndpoint receiver(b_.principal, sharded(4), *b_.keys, world_.clock,
                       world_.rng);
  ASSERT_TRUE(sender
                  .protect(datagram(a_.principal, b_.principal,
                                    util::to_bytes("prime"), 999),
                           true)
                  .has_value());
  obs::MetricsRegistry reg;
  receiver.register_metrics(reg, "recv");
  b_.keys->register_metrics(reg, "keys");

  std::atomic<bool> done{false};
  std::vector<std::thread> readers;
  readers.emplace_back([&] {
    std::uint64_t last = 0;
    while (!done.load(std::memory_order_relaxed)) {
      const ReceiveStats stats = receiver.receive_stats();
      EXPECT_GE(stats.accepted, last);
      last = stats.accepted;
    }
  });
  readers.emplace_back([&] {
    std::uint64_t last = 0;
    while (!done.load(std::memory_order_relaxed)) {
      const auto snap = reg.snapshot();
      const std::uint64_t accepted = snap.counters.at("recv.recv.accepted");
      EXPECT_GE(accepted, last);
      last = accepted;
    }
  });
  std::vector<std::thread> traffic;
  for (int t = 0; t < 2; ++t) {
    traffic.emplace_back([&, t] {
      WorkContext send_ctx, recv_ctx;
      util::Bytes wire, body;
      for (int i = 0; i < 300; ++i) {
        const Datagram d =
            datagram(a_.principal, b_.principal, util::to_bytes("s"),
                     static_cast<std::uint16_t>(10 + t));
        ASSERT_TRUE(sender.protect_into(send_ctx, d, true, wire));
        ASSERT_TRUE(std::holds_alternative<ReceivedInfo>(
            receiver.unprotect_into(recv_ctx, a_.principal, wire, body)));
      }
    });
  }
  for (auto& t : traffic) t.join();
  done.store(true, std::memory_order_relaxed);
  for (auto& t : readers) t.join();
  EXPECT_EQ(receiver.receive_stats().accepted, 2u * 300u);
}

}  // namespace
}  // namespace fbs::core
