// The tentpole perf claim, enforced: once a flow is warm (key derived,
// crypto context cached, scratch buffers sized), protect_into(),
// unprotect_into(), the pipeline and FbsIpMapping's batch input hook
// perform ZERO heap allocations per datagram. Global
// operator new/delete are replaced with counting versions; the counters
// must not move across the steady-state calls.
//
// This test gets its own binary: replacing the global allocator is a
// whole-program property and must not be linked into the other suites.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "fbs/engine.hpp"
#include "fbs/ip_map.hpp"
#include "fbs/pipeline.hpp"
#include "net/simnet.hpp"
#include "net/udp.hpp"
#include "support/world.hpp"

namespace {
// Atomic: the pipelined test counts allocations made on worker threads too.
std::atomic<std::size_t> g_news{0};  // every operator new/new[] call
std::atomic<bool> g_counting{false};

void* counted_alloc(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed))
    g_news.fetch_add(1, std::memory_order_relaxed);
  if (size == 0) size = 1;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc{};
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace fbs::core {
namespace {

using testing::TestWorld;

Datagram make_datagram(const Principal& src, const Principal& dst,
                       std::size_t body_size) {
  Datagram d;
  d.source = src;
  d.destination = dst;
  d.attrs.protocol = 17;
  d.attrs.source_address = src.ipv4().value;
  d.attrs.source_port = 5001;
  d.attrs.destination_address = dst.ipv4().value;
  d.attrs.destination_port = 5002;
  d.body = util::Bytes(body_size, 0x5A);
  return d;
}

class CountingScope {
 public:
  CountingScope() {
    g_news.store(0, std::memory_order_relaxed);
    g_counting.store(true, std::memory_order_relaxed);
  }
  ~CountingScope() { g_counting.store(false, std::memory_order_relaxed); }
  std::size_t news() const {
    return g_news.load(std::memory_order_relaxed);
  }
};

void run_steady_state(bool secret, bool combined) {
  TestWorld world(4242);
  auto& a = world.add_node("a", "10.0.0.1");
  auto& b = world.add_node("b", "10.0.0.2");
  FbsConfig cfg;
  cfg.combined_fst_tfkc = combined;
  FbsEndpoint alice(a.principal, cfg, *a.keys, world.clock, world.rng);
  FbsEndpoint bob(b.principal, cfg, *b.keys, world.clock, world.rng);

  const Datagram d = make_datagram(a.principal, b.principal, 1400);
  WorkContext tx, rx;
  util::Bytes wire;
  util::Bytes body;

  // Warm-up: derive the flow key, build the per-flow crypto contexts, and
  // size every scratch buffer on both ends.
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(alice.protect_into(tx, d, secret, wire));
    const auto outcome = bob.unprotect_into(rx, a.principal, wire, body);
    ASSERT_TRUE(std::holds_alternative<ReceivedInfo>(outcome));
    ASSERT_EQ(body, d.body);
  }

  // Steady state: not a single heap allocation per datagram, either side.
  for (int i = 0; i < 16; ++i) {
    {
      CountingScope scope;
      ASSERT_TRUE(alice.protect_into(tx, d, secret, wire));
      EXPECT_EQ(scope.news(), 0u)
          << "protect_into allocated (secret=" << secret
          << " combined=" << combined << " iteration " << i << ")";
    }
    {
      CountingScope scope;
      const auto outcome = bob.unprotect_into(rx, a.principal, wire, body);
      EXPECT_EQ(scope.news(), 0u)
          << "unprotect_into allocated (secret=" << secret
          << " combined=" << combined << " iteration " << i << ")";
      ASSERT_TRUE(std::holds_alternative<ReceivedInfo>(outcome));
    }
    ASSERT_EQ(body, d.body);
  }
}

TEST(ZeroAlloc, SecretDatagramSteadyStateCombinedPath) {
  run_steady_state(/*secret=*/true, /*combined=*/true);
}

TEST(ZeroAlloc, PlainDatagramSteadyStateCombinedPath) {
  run_steady_state(/*secret=*/false, /*combined=*/true);
}

TEST(ZeroAlloc, FlowMissSteadyState) {
  // Four-entry flow tables and 32 flows sent round-robin: every datagram
  // misses the combined FST+TFKC on send (a fresh sfl) and therefore the
  // RFKC on receive, so each one derives a flow key and builds a crypto
  // context on both ends. Once warm -- the miss classifier's stack full, so
  // it recycles its nodes, and every scratch buffer sized -- that miss path
  // (master key copy, MD5 derivation, DES schedule, MAC context, cache
  // insert, miss classification) performs zero heap allocations.
  TestWorld world(4244);
  auto& a = world.add_node("a", "10.0.0.1");
  auto& b = world.add_node("b", "10.0.0.2");
  FbsConfig cfg;
  cfg.fst_size = 4;
  cfg.rfkc_size = 4;
  FbsEndpoint alice(a.principal, cfg, *a.keys, world.clock, world.rng);
  FbsEndpoint bob(b.principal, cfg, *b.keys, world.clock, world.rng);

  constexpr std::size_t kFlows = 32;
  std::vector<Datagram> flows;
  for (std::size_t f = 0; f < kFlows; ++f) {
    flows.push_back(make_datagram(a.principal, b.principal, 200));
    flows.back().attrs.source_port = static_cast<std::uint16_t>(6000 + f);
  }
  WorkContext tx, rx;
  util::Bytes wire;
  util::Bytes body;
  const auto round_trip = [&](const Datagram& d) {
    ASSERT_TRUE(alice.protect_into(tx, d, /*secret=*/true, wire));
    const auto outcome = bob.unprotect_into(rx, a.principal, wire, body);
    ASSERT_TRUE(std::holds_alternative<ReceivedInfo>(outcome));
  };

  // Warm-up: more distinct RFKC keys than the classifier's stack holds.
  const std::size_t warm =
      MissClassifier::kDefaultMaxDepth + 4 * kFlows;
  for (std::size_t i = 0; i < warm; ++i) round_trip(flows[i % kFlows]);

  constexpr std::size_t kMeasured = 4 * kFlows;
  const std::uint64_t sent_keys = alice.send_stats().flow_keys_derived;
  const std::uint64_t recv_keys = bob.receive_stats().flow_keys_derived;
  for (std::size_t i = 0; i < kMeasured; ++i) {
    CountingScope scope;
    round_trip(flows[i % kFlows]);
    ASSERT_EQ(scope.news(), 0u) << "flow-miss datagram " << i << " allocated";
    ASSERT_EQ(body, flows[i % kFlows].body);
  }
  EXPECT_EQ(alice.send_stats().flow_keys_derived - sent_keys, kMeasured);
  EXPECT_EQ(bob.receive_stats().flow_keys_derived - recv_keys, kMeasured);
}

TEST(ZeroAlloc, PipelinedReceiveSteadyState) {
  // The pipelined path, end to end: submit -> ingress ring -> worker
  // (unprotect with a pooled body, wire recycled to the pool) -> egress ->
  // drain. The caller closes the loop by reusing each delivered body as the
  // next wire staging, so once everything is warm -- flow keys, worker
  // context, ring slots, pool lanes, thread-local principals -- one full
  // datagram cycle performs zero heap allocations on ANY thread.
  TestWorld world(4243);
  auto& a = world.add_node("a", "10.0.0.1");
  auto& b = world.add_node("b", "10.0.0.2");
  FbsConfig cfg;
  cfg.shards = 4;
  FbsEndpoint alice(a.principal, cfg, *a.keys, world.clock, world.rng);
  FbsEndpoint bob(b.principal, cfg, *b.keys, world.clock, world.rng);

  PipelineConfig pc;
  pc.workers = 1;
  pc.batch = 4;
  DatagramPipeline pipe(bob, pc);

  const Datagram d = make_datagram(a.principal, b.principal, 1400);
  net::Ipv4Header header;
  header.protocol = 17;
  header.source = a.principal.ipv4();
  header.destination = b.principal.ipv4();

  WorkContext tx;
  DatagramPipeline::Submission sub{header, {}};
  util::Bytes got;
  // Built once, outside any counting scope: converting a lambda to
  // std::function may allocate, and that cost is per-sink, not per-datagram.
  const DatagramPipeline::Sink sink = [&](const net::Ipv4Header& h,
                                          util::Bytes body) {
    EXPECT_EQ(h.source, a.principal.ipv4());
    got = std::move(body);
  };

  auto cycle = [&] {
    ASSERT_TRUE(alice.protect_into(tx, d, /*secret=*/true, sub.wire));
    ASSERT_EQ(pipe.submit({&sub, 1}), 1u);
    pipe.drain_all(sink);
    ASSERT_EQ(got, d.body);
    sub.wire = std::move(got);  // delivered body becomes next wire staging
  };

  // Warm-up: flow key + crypto contexts on both ends, the worker's
  // WorkContext and scratch principal, the submit thread's thread-local
  // principal, and the pool rotation (the first submitted wire is a heap
  // buffer that joins the slab rotation).
  for (int i = 0; i < 8; ++i) cycle();

  for (int i = 0; i < 16; ++i) {
    CountingScope scope;
    cycle();
    EXPECT_EQ(scope.news(), 0u)
        << "pipelined receive allocated (iteration " << i << ")";
  }
  EXPECT_EQ(pipe.buffer_pool().stats().heap_fallbacks, 0u);
  EXPECT_EQ(pipe.in_flight(), 0u);
}

TEST(ZeroAlloc, PipelinedBurstReceiveSteadyState) {
  // The cross-datagram batch path end to end: one shard, several flows,
  // whole bursts submitted at once, so the worker's ring visit hands
  // unprotect_burst_into a multi-lane group (mixed keys) that decrypts
  // through the 256-lane engine and verifies its eight MACs in one 8-lane
  // MacBatch. Steady state must stay allocation-free on every thread --
  // lane state, batch cursors, MAC jobs and tags, burst descriptors and the
  // A2 context re-resolution all live in pre-sized or stack storage.
  constexpr std::size_t kFlows = 8;
  TestWorld world(4244);
  auto& a = world.add_node("a", "10.0.0.1");
  auto& b = world.add_node("b", "10.0.0.2");
  FbsConfig cfg;
  cfg.shards = 1;  // one shard => the burst is one locked group
  FbsEndpoint alice(a.principal, cfg, *a.keys, world.clock, world.rng);
  FbsEndpoint bob(b.principal, cfg, *b.keys, world.clock, world.rng);

  PipelineConfig pc;
  pc.workers = 1;
  pc.batch = kFlows;
  DatagramPipeline pipe(bob, pc);

  std::array<Datagram, kFlows> datagrams;
  for (std::size_t f = 0; f < kFlows; ++f) {
    datagrams[f] = make_datagram(a.principal, b.principal, 1400);
    datagrams[f].attrs.source_port = static_cast<std::uint16_t>(6000 + f);
  }
  net::Ipv4Header header;
  header.protocol = 17;
  header.source = a.principal.ipv4();
  header.destination = b.principal.ipv4();

  WorkContext tx;
  std::vector<DatagramPipeline::Submission> subs(kFlows, {header, {}});
  std::vector<util::Bytes> returned;
  returned.reserve(kFlows);
  const DatagramPipeline::Sink sink = [&](const net::Ipv4Header&,
                                          util::Bytes body) {
    returned.push_back(std::move(body));
  };

  auto cycle = [&] {
    for (std::size_t f = 0; f < kFlows; ++f)
      ASSERT_TRUE(alice.protect_into(tx, datagrams[f], /*secret=*/true,
                                     subs[f].wire));
    ASSERT_EQ(pipe.submit(subs), kFlows);
    pipe.drain_all(sink);
    ASSERT_EQ(returned.size(), kFlows);
    for (std::size_t f = 0; f < kFlows; ++f)
      subs[f].wire = std::move(returned[f]);  // bodies: next wire staging
    returned.clear();
  };

  for (int i = 0; i < 8; ++i) cycle();

  for (int i = 0; i < 16; ++i) {
    CountingScope scope;
    cycle();
    EXPECT_EQ(scope.news(), 0u)
        << "pipelined burst receive allocated (iteration " << i << ")";
  }
  EXPECT_EQ(pipe.buffer_pool().stats().heap_fallbacks, 0u);
  EXPECT_EQ(pipe.in_flight(), 0u);
  EXPECT_EQ(pipe.stats().accepted.load(), 24u * kFlows);
}

void run_ip_map_batch(std::size_t burst, bool pipelined = false) {
  // FbsIpMapping's input hook over one stack receive batch: four flows'
  // datagrams interleaved, opened by one unprotect_burst_into (mixed-key
  // lanes, 8-lane MACs). Once warm -- engine scratch, burst staging,
  // scratch principals, and body buffers swapped in from earlier wires --
  // the hook allocates nothing, whatever the batch size. With a pipeline
  // the hook moves the wires into one submit instead, and hook plus drain
  // (bodies recycled into the pool by the protocol handler) allocate
  // nothing either.
  TestWorld world(4245);
  auto& a = world.add_node("a", "10.0.0.1");
  auto& b = world.add_node("b", "10.0.0.2");
  net::SimNetwork net(world.clock, 1);
  net::IpStack a_stack(net, world.clock, a.principal.ipv4());
  net::IpStack b_stack(net, world.clock, b.principal.ipv4());
  const IpMappingConfig config;
  IpMappingConfig b_config;
  if (pipelined) b_config.pipeline_workers = 1;
  FbsIpMapping a_fbs(a_stack, config, *a.keys, world.clock, world.rng);
  FbsIpMapping b_fbs(b_stack, b_config, *b.keys, world.clock, world.rng);
  net::UdpService a_udp(a_stack);

  std::vector<util::Bytes> frames;
  net.set_capture([&](net::Ipv4Address, net::Ipv4Address,
                      const util::Bytes& frame, bool outbound) {
    if (outbound) frames.push_back(frame);
  });
  constexpr std::size_t kFlows = 4;
  for (std::size_t i = 0; i < burst; ++i) {
    ASSERT_TRUE(a_udp.send(b_stack.address(),
                           static_cast<std::uint16_t>(6000 + i % kFlows), 7,
                           util::Bytes(1400, static_cast<std::uint8_t>(i))));
  }
  net.clear_capture();
  ASSERT_EQ(frames.size(), burst);
  std::vector<net::Ipv4Packet> wires;
  for (const util::Bytes& f : frames) wires.push_back(*net::Ipv4Header::parse(f));

  std::vector<net::IpStack::InputDatagram> batch(burst);
  const auto load = [&] {
    for (std::size_t i = 0; i < burst; ++i) {
      batch[i].header = wires[i].header;
      batch[i].payload.assign(wires[i].payload.begin(),
                              wires[i].payload.end());
      batch[i].outcome = net::IpStack::InputOutcome::kDeliver;
    }
  };
  // Pipeline mode: one worker and one shard keep the drain in batch order.
  std::size_t drained = 0;
  b_stack.register_protocol(
      net::IpProto::kUdp, [&](const net::Ipv4Header&, util::Bytes body) {
        // The opened body is the UDP datagram: 8-byte header, then data.
        EXPECT_EQ(body.size(), 1408u);
        EXPECT_EQ(body.back(), static_cast<std::uint8_t>(drained % burst));
        ++drained;
        b_fbs.pipeline()->recycle(std::move(body));
      });
  const auto& hook = b_stack.security_hooks().input;
  const auto run = [&] {
    hook(batch);
    b_fbs.drain_pipeline_all();
  };
  const auto check = [&] {
    for (std::size_t i = 0; i < burst; ++i) {
      if (pipelined) {
        ASSERT_EQ(batch[i].outcome, net::IpStack::InputOutcome::kTaken)
            << "datagram " << i;
        continue;
      }
      ASSERT_EQ(batch[i].outcome, net::IpStack::InputOutcome::kDeliver)
          << "datagram " << i;
      ASSERT_EQ(batch[i].payload.size(), 1408u);
      ASSERT_EQ(batch[i].payload.back(), static_cast<std::uint8_t>(i));
    }
  };
  for (int i = 0; i < 3; ++i) {
    load();
    run();
    check();
  }
  for (int i = 0; i < 8; ++i) {
    load();
    {
      CountingScope scope;
      run();
      EXPECT_EQ(scope.news(), 0u)
          << "batch hook allocated (burst " << burst << ", iteration " << i
          << ")";
    }
    check();
  }
  EXPECT_EQ(b_fbs.counters().in_accepted, 11u * burst);
  EXPECT_EQ(drained, pipelined ? 11u * burst : 0u);
}

TEST(ZeroAlloc, IpMappingBatchHookSteadyStateBurstOf1) { run_ip_map_batch(1); }

TEST(ZeroAlloc, IpMappingBatchHookSteadyStateBurstOf16) {
  run_ip_map_batch(16);
}

TEST(ZeroAlloc, IpMappingBatchHookSteadyStateBurstOf64) {
  run_ip_map_batch(64);
}

TEST(ZeroAlloc, PipelinedIpMappingBatchHookSteadyStateBurstOf4) {
  run_ip_map_batch(4, /*pipelined=*/true);
}

TEST(ZeroAlloc, PipelinedIpMappingBatchHookSteadyStateBurstOf64) {
  run_ip_map_batch(64, /*pipelined=*/true);
}

TEST(ZeroAlloc, CountersActuallyCount) {
  // Sanity-check the hook itself so a silent linker surprise (the default
  // allocator winning) cannot make the suite pass vacuously.
  CountingScope scope;
  auto* p = new std::uint64_t(7);
  EXPECT_GE(scope.news(), 1u);
  delete p;
}

}  // namespace
}  // namespace fbs::core
