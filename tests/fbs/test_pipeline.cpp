// The parallel receive pipeline: submit/drain conservation, payload
// integrity across worker threads, the pipeline behind IpStack's input
// hook, and rejection accounting through the RejectHook.
#include "fbs/pipeline.hpp"
#include "net/simnet.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "fbs/ip_map.hpp"
#include "net/udp.hpp"
#include "support/protect.hpp"
#include "support/world.hpp"

namespace fbs::core {
namespace {

using testing::protect;
using testing::TestWorld;

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

net::Ipv4Header header_from(const Principal& src, const Principal& dst) {
  net::Ipv4Header h;
  h.protocol = 17;
  h.source = src.ipv4();
  h.destination = dst.ipv4();
  return h;
}

/// Submit one wire; true if it was queued.
bool submit_one(DatagramPipeline& pipe, const net::Ipv4Header& header,
                util::Bytes wire) {
  DatagramPipeline::Submission sub{header, std::move(wire)};
  return pipe.submit({&sub, 1}) == 1;
}

/// Submissions of `wires`, all under `header`.
std::vector<DatagramPipeline::Submission> submissions(
    const net::Ipv4Header& header, std::vector<util::Bytes>& wires) {
  std::vector<DatagramPipeline::Submission> subs;
  for (util::Bytes& wire : wires) subs.push_back({header, std::move(wire)});
  return subs;
}

class PipelineTest : public ::testing::Test {
 protected:
  PipelineTest()
      : world_(909),
        a_(world_.add_node("a", "10.0.0.1")),
        b_(world_.add_node("b", "10.0.0.2")),
        sender_(a_.principal, FbsConfig{}, *a_.keys, world_.clock,
                world_.rng),
        receiver_(b_.principal, sharded_config(), *b_.keys, world_.clock,
                  world_.rng) {}

  static FbsConfig sharded_config() {
    FbsConfig config;
    config.shards = 4;
    return config;
  }

  TestWorld world_;
  TestWorld::Node& a_;
  TestWorld::Node& b_;
  FbsEndpoint sender_;
  FbsEndpoint receiver_;
};

TEST_F(PipelineTest, DeliversEveryDatagramAcrossFlows) {
  PipelineConfig pc;
  pc.workers = 2;
  DatagramPipeline pipe(receiver_, pc);
  EXPECT_EQ(pipe.worker_count(), 2u);

  constexpr int kDatagrams = 64;
  std::map<std::string, int> expected;
  for (int i = 0; i < kDatagrams; ++i) {
    const std::string text = "datagram " + std::to_string(i);
    ++expected[text];
    const auto wire = protect(sender_,
        datagram(a_.principal, b_.principal, util::to_bytes(text),
                 static_cast<std::uint16_t>(1 + i % 16)),
        true);
    ASSERT_TRUE(wire.has_value());
    ASSERT_TRUE(
        submit_one(pipe, header_from(a_.principal, b_.principal), *wire));
  }

  std::map<std::string, int> got;
  pipe.drain_all([&](const net::Ipv4Header& h, util::Bytes body) {
    EXPECT_EQ(h.source, a_.principal.ipv4());
    ++got[std::string(body.begin(), body.end())];
  });

  EXPECT_EQ(got, expected);
  EXPECT_EQ(pipe.stats().submitted, 64u);
  EXPECT_EQ(pipe.stats().accepted, 64u);
  EXPECT_EQ(pipe.stats().rejected, 0u);
  EXPECT_EQ(pipe.stats().backpressure_drops, 0u);
  EXPECT_EQ(pipe.stats().drained, 64u);
  EXPECT_EQ(pipe.in_flight(), 0u);
  EXPECT_EQ(receiver_.receive_stats().accepted, 64u);
}

TEST_F(PipelineTest, SameFlowStaysInOrder) {
  PipelineConfig pc;
  pc.workers = 4;
  DatagramPipeline pipe(receiver_, pc);

  constexpr int kDatagrams = 200;
  for (int i = 0; i < kDatagrams; ++i) {
    const auto wire = protect(sender_,
        datagram(a_.principal, b_.principal,
                 util::to_bytes(std::to_string(i)), 7),
        true);
    ASSERT_TRUE(wire.has_value());
    ASSERT_TRUE(
        submit_one(pipe, header_from(a_.principal, b_.principal), *wire));
  }
  // One flow -> one shard -> one worker draining a FIFO ring: bodies must
  // come out in submission order even with four workers running.
  int next = 0;
  pipe.drain_all([&](const net::Ipv4Header&, util::Bytes body) {
    EXPECT_EQ(std::string(body.begin(), body.end()), std::to_string(next));
    ++next;
  });
  EXPECT_EQ(next, kDatagrams);
}

TEST_F(PipelineTest, IngressDropsAttributedToTheOverloadedShard) {
  PipelineConfig pc;
  pc.workers = 1;
  pc.ingress_capacity = 1;  // one-slot ring: a pre-built burst must drop
  DatagramPipeline pipe(receiver_, pc);

  // Protect everything up front so the submit loop outruns the worker by
  // orders of magnitude -- the drops are then inevitable, not timing luck.
  constexpr int kDatagrams = 2048;
  std::vector<util::Bytes> wires;
  wires.reserve(kDatagrams);
  for (int i = 0; i < kDatagrams; ++i) {
    auto wire = protect(sender_,
        datagram(a_.principal, b_.principal,
                 util::to_bytes(std::to_string(i)), 7),
        true);
    ASSERT_TRUE(wire.has_value());
    wires.push_back(std::move(*wire));
  }
  const auto header = header_from(a_.principal, b_.principal);
  std::uint64_t refused = 0;
  for (auto& wire : wires)
    if (!submit_one(pipe, header, std::move(wire))) ++refused;
  int delivered = 0;
  pipe.drain_all([&](const net::Ipv4Header&, util::Bytes) { ++delivered; });

  EXPECT_GT(refused, 0u);
  // The policy counter and the ring-level counter describe the same events.
  EXPECT_EQ(pipe.stats().backpressure_drops, refused);
  EXPECT_EQ(pipe.ingress_dropped(), refused);
  // One flow -> one shard: the per-shard view pins the overload to it.
  std::uint64_t across_shards = 0;
  std::size_t overloaded = 0;
  for (std::size_t s = 0; s < pipe.shard_count(); ++s) {
    across_shards += pipe.ingress_dropped(s);
    if (pipe.ingress_dropped(s) > 0) ++overloaded;
  }
  EXPECT_EQ(across_shards, refused);
  EXPECT_EQ(overloaded, 1u);
  EXPECT_EQ(static_cast<std::uint64_t>(delivered) + refused,
            static_cast<std::uint64_t>(kDatagrams));

  // And the registry exposes both the total and the per-shard breakdown.
  obs::MetricsRegistry reg;
  pipe.register_metrics(reg, "pipe");
  const auto snap = reg.snapshot();
  EXPECT_EQ(snap.counters.at("pipe.ingress_dropped"), refused);
  std::uint64_t from_metrics = 0;
  for (std::size_t s = 0; s < pipe.shard_count(); ++s)
    from_metrics +=
        snap.counters.at("pipe.ingress_dropped.shard" + std::to_string(s));
  EXPECT_EQ(from_metrics, refused);
}

TEST_F(PipelineTest, RejectionsAreCountedAndReported) {
  PipelineConfig pc;
  pc.workers = 2;
  std::atomic<std::uint64_t> bad_mac{0}, other{0};
  DatagramPipeline pipe(receiver_, pc, [&](ReceiveError e) {
    (e == ReceiveError::kBadMac ? bad_mac : other)
        .fetch_add(1, std::memory_order_relaxed);
  });

  // Authenticated plaintext: flipping a body byte is a clean MAC mismatch
  // (on a secret wire the same flip would corrupt the cipher padding and
  // surface as kDecryptFailed instead).
  auto wire = protect(sender_,
      datagram(a_.principal, b_.principal, util::to_bytes("intact"), 1),
      false);
  ASSERT_TRUE(wire.has_value());
  util::Bytes tampered = *wire;
  tampered.back() ^= 0x01;

  ASSERT_TRUE(
      submit_one(pipe, header_from(a_.principal, b_.principal), *wire));
  ASSERT_TRUE(
      submit_one(pipe, header_from(a_.principal, b_.principal), tampered));

  int delivered = 0;
  pipe.drain_all(
      [&](const net::Ipv4Header&, util::Bytes) { ++delivered; });
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(bad_mac.load(), 1u);
  EXPECT_EQ(other.load(), 0u);
  EXPECT_EQ(pipe.stats().accepted, 1u);
  EXPECT_EQ(pipe.stats().rejected, 1u);
  EXPECT_EQ(pipe.in_flight(), 0u);
}

TEST_F(PipelineTest, SubmitBatchDeliversEverythingInPerFlowOrder) {
  PipelineConfig pc;
  pc.workers = 2;
  pc.batch = 8;
  DatagramPipeline pipe(receiver_, pc);

  // Four flows interleaved in one stream of bursts, every body tagged
  // "f<flow>:<seq>" so per-flow order is checkable after the fan-out.
  constexpr int kFlows = 4;
  constexpr int kDatagrams = 96;
  std::vector<util::Bytes> wires;
  wires.reserve(kDatagrams);
  std::vector<int> seq(kFlows, 0);
  for (int i = 0; i < kDatagrams; ++i) {
    const int flow = i % kFlows;
    const std::string text =
        "f" + std::to_string(flow) + ":" + std::to_string(seq[flow]++);
    auto wire = protect(sender_,
        datagram(a_.principal, b_.principal, util::to_bytes(text),
                 static_cast<std::uint16_t>(100 + flow)),
        true);
    ASSERT_TRUE(wire.has_value());
    wires.push_back(std::move(*wire));
  }

  // Submit in bursts of 10 (not a divisor of anything above: chunks cut
  // across flows, so the shard grouping actually has work to do).
  auto subs = submissions(header_from(a_.principal, b_.principal), wires);
  std::size_t accepted = 0;
  for (std::size_t at = 0; at < subs.size(); at += 10) {
    const std::size_t n = std::min<std::size_t>(10, subs.size() - at);
    accepted += pipe.submit({subs.data() + at, n});
  }
  EXPECT_EQ(accepted, static_cast<std::size_t>(kDatagrams));

  std::vector<int> next(kFlows, 0);
  int delivered = 0;
  pipe.drain_all([&](const net::Ipv4Header&, util::Bytes body) {
    const std::string text(body.begin(), body.end());
    const auto colon = text.find(':');
    ASSERT_NE(colon, std::string::npos);
    const int flow = std::stoi(text.substr(1, colon - 1));
    const int got_seq = std::stoi(text.substr(colon + 1));
    EXPECT_EQ(got_seq, next[flow]) << "flow " << flow << " reordered";
    ++next[flow];
    ++delivered;
  });
  EXPECT_EQ(delivered, kDatagrams);
  EXPECT_EQ(pipe.stats().submitted, static_cast<std::uint64_t>(kDatagrams));
  EXPECT_EQ(pipe.stats().drained, static_cast<std::uint64_t>(kDatagrams));
  EXPECT_EQ(pipe.in_flight(), 0u);
  // Steady-state bursts ride the slab, never the allocator.
  EXPECT_EQ(pipe.buffer_pool().stats().heap_fallbacks, 0u);
}

TEST_F(PipelineTest, DrainAllTerminatesAfterStopWithBacklog) {
  // The regression this PR fixes: stop the pipeline with datagrams still
  // queued in ingress and a result stuck behind a full egress ring, then
  // call drain_all(). Before the fix the queued items were never
  // accounted, in_flight stayed positive and drain_all spun forever.
  PipelineConfig pc;
  pc.workers = 1;
  pc.batch = 2;
  pc.egress_capacity = 1;  // worker wedges on its second accepted result
  DatagramPipeline pipe(receiver_, pc);

  constexpr int kDatagrams = 64;
  std::vector<util::Bytes> wires;
  for (int i = 0; i < kDatagrams; ++i) {
    auto wire = protect(sender_,
        datagram(a_.principal, b_.principal,
                 util::to_bytes(std::to_string(i)), 7),
        true);
    ASSERT_TRUE(wire.has_value());
    wires.push_back(std::move(*wire));
  }
  const auto header = header_from(a_.principal, b_.principal);
  auto subs = submissions(header, wires);
  EXPECT_EQ(pipe.submit(subs), static_cast<std::size_t>(kDatagrams));

  // Nobody drains. Wait until the worker has accepted two results: with a
  // one-slot egress the second cannot be flushed, so the worker is (or is
  // about to be) blocked in its egress push with the rest still queued.
  while (pipe.stats().accepted.load() < 2) std::this_thread::yield();
  pipe.stop();

  int delivered = 0;
  pipe.drain_all(  // must return, not spin
      [&](const net::Ipv4Header&, util::Bytes) { ++delivered; });

  const auto& s = pipe.stats();
  EXPECT_EQ(pipe.in_flight(), 0u);
  // Exactly the one result that reached the egress ring survives.
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(s.drained, 1u);
  EXPECT_GT(s.egress_dropped, 0u);      // accepted work cancelled mid-push
  EXPECT_GT(s.shutdown_discards, 0u);   // ingress backlog accounted
  EXPECT_EQ(s.egress_dropped, s.accepted - s.drained);
  // The conservation equation: every submitted datagram has one terminus.
  EXPECT_EQ(s.submitted, s.backpressure_drops + s.rejected + s.drained +
                             s.egress_dropped + s.shutdown_discards);

  // A submit after stop() is refused and accounted, not lost.
  DatagramPipeline::Submission late{header, util::Bytes(64, 0x5A)};
  EXPECT_EQ(pipe.submit({&late, 1}), 0u);
  EXPECT_FALSE(late.queued);
  EXPECT_EQ(late.wire.size(), 64u);  // a refused item keeps its wire
  EXPECT_EQ(s.submitted, static_cast<std::uint64_t>(kDatagrams) + 1);
  EXPECT_EQ(s.submitted, s.backpressure_drops + s.rejected + s.drained +
                             s.egress_dropped + s.shutdown_discards);

  // And the registry exposes the new termini.
  obs::MetricsRegistry reg;
  pipe.register_metrics(reg, "pipe");
  const auto snap = reg.snapshot();
  EXPECT_EQ(snap.counters.at("pipe.egress_dropped"), s.egress_dropped);
  EXPECT_EQ(snap.counters.at("pipe.shutdown_discards"), s.shutdown_discards);
  EXPECT_GE(snap.counters.at("pipe.pool.refills"), 0u);
  EXPECT_GT(snap.gauges.at("pipe.pool.pooled"), 0.0);
}

TEST_F(PipelineTest, BusyClockIsCpuTimeNotWallTime) {
  // The satellite fix: the non-Linux fallback used to be steady_clock wall
  // time, which charged a descheduled worker for its neighbors' cycles and
  // made oversubscribed speedup numbers meaningless. Both remaining
  // regimes are CPU clocks; the name says which one this build got.
#if defined(__linux__)
  EXPECT_EQ(DatagramPipeline::busy_clock(), "thread-cputime");
#else
  EXPECT_EQ(DatagramPipeline::busy_clock(), "process-cputime");
#endif
  PipelineConfig pc;
  pc.workers = 1;
  DatagramPipeline pipe(receiver_, pc);
  obs::MetricsRegistry reg;
  pipe.register_metrics(reg, "pipe");
  const auto snap = reg.snapshot();
  EXPECT_EQ(snap.gauges.at("pipe.busy_clock_is_thread_cputime"),
            DatagramPipeline::busy_clock() == "thread-cputime" ? 1.0 : 0.0);
}

TEST_F(PipelineTest, WorkerBusyTimeAccumulates) {
  PipelineConfig pc;
  pc.workers = 1;
  DatagramPipeline pipe(receiver_, pc);
  for (int i = 0; i < 32; ++i) {
    const auto wire = protect(sender_,
        datagram(a_.principal, b_.principal, world_.rng.next_bytes(512),
                 static_cast<std::uint16_t>(1 + i)),
        true);
    ASSERT_TRUE(wire.has_value());
    ASSERT_TRUE(
        submit_one(pipe, header_from(a_.principal, b_.principal), *wire));
  }
  pipe.drain_all([](const net::Ipv4Header&, util::Bytes) {});
  // 32 DES+MD5 unprotects cannot take zero thread-CPU time.
  EXPECT_GT(pipe.worker_busy_ns(0), 0u);
}

/// Two FBS hosts with the receive pipeline engaged under the IP stack.
class PipelinedIpTest : public ::testing::Test {
 protected:
  PipelinedIpTest()
      : world_(910),
        net_(world_.clock, 77),
        a_node_(world_.add_node("a", "10.0.0.1")),
        b_node_(world_.add_node("b", "10.0.0.2")),
        a_stack_(net_, world_.clock, *net::Ipv4Address::parse("10.0.0.1")),
        b_stack_(net_, world_.clock, *net::Ipv4Address::parse("10.0.0.2")),
        a_fbs_(a_stack_, config_, *a_node_.keys, world_.clock, world_.rng),
        b_fbs_(b_stack_, config_, *b_node_.keys, world_.clock, world_.rng),
        a_udp_(a_stack_),
        b_udp_(b_stack_) {}

  static IpMappingConfig pipelined_config() {
    IpMappingConfig c;
    c.fbs.shards = 4;
    c.pipeline_workers = 2;
    return c;
  }

  IpMappingConfig config_ = pipelined_config();
  TestWorld world_;
  net::SimNetwork net_;
  TestWorld::Node& a_node_;
  TestWorld::Node& b_node_;
  net::IpStack a_stack_;
  net::IpStack b_stack_;
  FbsIpMapping a_fbs_;
  FbsIpMapping b_fbs_;
  net::UdpService a_udp_;
  net::UdpService b_udp_;
};

TEST_F(PipelinedIpTest, UdpTrafficDeliveredThroughThePipeline) {
  ASSERT_NE(b_fbs_.pipeline(), nullptr);
  std::map<std::string, int> got;
  b_udp_.bind(7, [&](net::Ipv4Address, std::uint16_t, util::Bytes payload) {
    ++got[std::string(payload.begin(), payload.end())];
  });

  constexpr int kDatagrams = 16;
  for (int i = 0; i < kDatagrams; ++i)
    a_udp_.send(b_stack_.address(), static_cast<std::uint16_t>(5000 + i), 7,
                util::to_bytes("pipelined " + std::to_string(i)));
  net_.run();

  // The stack consumed the datagrams into the pipeline; nothing is
  // delivered until the owner drains from the stack's thread.
  EXPECT_EQ(b_stack_.counters().deferred_in, 16u);
  EXPECT_EQ(b_fbs_.counters().in_deferred, 16u);
  b_fbs_.drain_pipeline_all();

  EXPECT_EQ(got.size(), 16u);
  for (int i = 0; i < kDatagrams; ++i)
    EXPECT_EQ(got["pipelined " + std::to_string(i)], 1) << i;
  EXPECT_EQ(b_fbs_.counters().in_accepted, 16u);
  EXPECT_EQ(b_fbs_.pipeline()->stats().accepted, 16u);
  EXPECT_EQ(b_fbs_.pipeline()->in_flight(), 0u);
}

TEST_F(PipelinedIpTest, TamperedWireRejectedOnAWorkerThread) {
  int delivered = 0;
  b_udp_.bind(7, [&](net::Ipv4Address, std::uint16_t, util::Bytes) {
    ++delivered;
  });
  net_.set_tap([&](net::Ipv4Address, net::Ipv4Address, util::Bytes& frame) {
    if (frame.size() > 40) frame[40] ^= 0x80;
    return net::SimNetwork::TapVerdict::kPass;
  });
  a_udp_.send(b_stack_.address(), 5000, 7, util::to_bytes("payload"));
  net_.run();
  b_fbs_.drain_pipeline_all();

  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(b_fbs_.counters().in_deferred, 1u);
  EXPECT_EQ(
      b_fbs_.counters()
          .in_rejected[static_cast<std::size_t>(ReceiveError::kBadMac)],
      1u);
  EXPECT_EQ(b_fbs_.counters().in_accepted, 0u);
}

TEST_F(PipelinedIpTest, BypassTrafficStaysSynchronous) {
  // Packets from a bypass host (here: a plain host with no FBS mapping at
  // all, like the certificate directory) never enter the pipeline: the
  // input hook leaves them to the stack's synchronous dispatch.
  const auto plain_host = *net::Ipv4Address::parse("10.0.0.100");
  net::IpStack plain_stack(net_, world_.clock, plain_host);
  net::UdpService plain_udp(plain_stack);

  IpMappingConfig cfg = pipelined_config();
  cfg.bypass_hosts = {plain_host};
  net::IpStack stack(net_, world_.clock, *net::Ipv4Address::parse("10.0.0.3"));
  auto& c_node = world_.add_node("c", "10.0.0.3");
  FbsIpMapping c_fbs(stack, cfg, *c_node.keys, world_.clock, world_.rng);
  net::UdpService c_udp(stack);
  util::Bytes got;
  c_udp.bind(7, [&](net::Ipv4Address, std::uint16_t, util::Bytes payload) {
    got = std::move(payload);
  });

  plain_udp.send(stack.address(), 5000, 7, util::to_bytes("bypass hello"));
  net_.run();

  // Delivered with no drain call: the bypass path never left the stack's
  // thread.
  EXPECT_EQ(got, util::to_bytes("bypass hello"));
  EXPECT_EQ(c_fbs.counters().in_deferred, 0u);
  EXPECT_EQ(c_fbs.counters().in_bypassed, 1u);
}

TEST_F(PipelinedIpTest, MixedSourceBatchKeepsEachDatagramsSource) {
  // Two senders' datagrams reach b interleaved in one transport batch, so
  // every input-hook call mixes sources. Each datagram must be opened
  // under its own source: submitted under one shared header, the other
  // sender's datagrams would fail their MAC.
  auto& c_node = world_.add_node("c", "10.0.0.3");
  net::IpStack c_stack(net_, world_.clock,
                       *net::Ipv4Address::parse("10.0.0.3"));
  FbsIpMapping c_fbs(c_stack, IpMappingConfig{}, *c_node.keys, world_.clock,
                     world_.rng);
  net::UdpService c_udp(c_stack);

  std::map<std::pair<std::uint32_t, std::string>, int> got;
  b_udp_.bind(7, [&](net::Ipv4Address from, std::uint16_t,
                     util::Bytes payload) {
    ++got[{from.value, std::string(payload.begin(), payload.end())}];
  });

  constexpr int kPerSender = 6;
  for (int i = 0; i < kPerSender; ++i) {
    const auto port = static_cast<std::uint16_t>(5000 + i);
    ASSERT_TRUE(a_udp_.send(b_stack_.address(), port, 7,
                            util::to_bytes("a" + std::to_string(i))));
    ASSERT_TRUE(c_udp.send(b_stack_.address(), port, 7,
                           util::to_bytes("c" + std::to_string(i))));
  }
  // Every frame is due at once for the same host: one step hands b all of
  // them.
  ASSERT_TRUE(net_.step());
  EXPECT_EQ(b_stack_.counters().packets_in, 2u * kPerSender);
  net_.run();
  b_fbs_.drain_pipeline_all();

  EXPECT_EQ(b_fbs_.counters().in_deferred, 2u * kPerSender);
  EXPECT_EQ(b_stack_.counters().deferred_in, 2u * kPerSender);
  EXPECT_EQ(b_fbs_.counters().in_accepted, 2u * kPerSender);
  ASSERT_EQ(got.size(), 2u * kPerSender);
  for (int i = 0; i < kPerSender; ++i) {
    EXPECT_EQ((got[{a_stack_.address().value, "a" + std::to_string(i)}]), 1)
        << i;
    EXPECT_EQ((got[{c_stack.address().value, "c" + std::to_string(i)}]), 1)
        << i;
  }
}

TEST_F(PipelinedIpTest, RefusedDatagramsAreCountedOnceAsHookDrops) {
  // A one-slot ingress ring and a burst of one flow: each input-hook call
  // hands the pipeline four datagrams for the same ring, so at least three
  // of every four are refused. Each refusal is one pipeline backpressure
  // drop and one stack hook drop, and every reassembled datagram ends as
  // exactly one of taken, dropped or delivered inline.
  IpMappingConfig cfg = pipelined_config();
  cfg.pipeline_ingress_capacity = 1;
  auto& d_node = world_.add_node("d", "10.0.0.4");
  net::IpStack d_stack(net_, world_.clock,
                       *net::Ipv4Address::parse("10.0.0.4"));
  FbsIpMapping d_fbs(d_stack, cfg, *d_node.keys, world_.clock, world_.rng);
  net::UdpService d_udp(d_stack);
  int udp_delivered = 0;
  d_udp.bind(7, [&](net::Ipv4Address, std::uint16_t, util::Bytes) {
    ++udp_delivered;
  });
  // Raw IP passes unprotected and is delivered inline, pipeline or not.
  int raw_delivered = 0;
  d_stack.register_protocol(net::IpProto::kIcmp,
                            [&](const net::Ipv4Header&, util::Bytes) {
                              ++raw_delivered;
                            });

  constexpr std::size_t kBurst = 16;
  ASSERT_TRUE(a_stack_.output(d_stack.address(), net::IpProto::kIcmp,
                              util::to_bytes("raw")));
  for (std::size_t i = 0; i < kBurst; ++i)
    ASSERT_TRUE(a_udp_.send(d_stack.address(), 5000, 7,
                            util::Bytes(256, static_cast<std::uint8_t>(i))));
  net_.run();
  d_fbs.drain_pipeline_all();

  const auto& stack = d_stack.counters();
  const auto& pipe = d_fbs.pipeline()->stats();
  const std::uint64_t reassembled = kBurst + 1;
  EXPECT_EQ(stack.packets_in, reassembled);
  EXPECT_GE(pipe.backpressure_drops, 3u);
  EXPECT_EQ(stack.hook_drops_in, pipe.backpressure_drops);
  EXPECT_EQ(d_fbs.pipeline()->ingress_dropped(), pipe.backpressure_drops);
  EXPECT_EQ(stack.deferred_in + stack.hook_drops_in, kBurst);
  EXPECT_EQ(d_fbs.counters().in_deferred, stack.deferred_in);
  EXPECT_EQ(pipe.submitted, kBurst);

  // The pipeline delivered what it took; the raw datagram went inline.
  EXPECT_EQ(pipe.drained, stack.deferred_in);
  EXPECT_EQ(udp_delivered, static_cast<int>(stack.deferred_in));
  EXPECT_EQ(raw_delivered, 1);
  const std::uint64_t delivered_inline = stack.delivered - pipe.drained;
  EXPECT_EQ(delivered_inline, 1u);
  EXPECT_EQ(stack.deferred_in + stack.hook_drops_in + delivered_inline,
            reassembled);
}

}  // namespace
}  // namespace fbs::core
