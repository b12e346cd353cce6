#include "fbs/ip_map.hpp"
#include "net/simnet.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "net/tcp.hpp"
#include "net/udp.hpp"
#include "net/udp_transport.hpp"
#include "support/world.hpp"

namespace fbs::core {
namespace {

using testing::TestWorld;

/// Two FBS-enabled hosts on a simulated segment, with UDP apps on top.
class IpMapTest : public ::testing::Test {
 protected:
  IpMapTest()
      : world_(505),
        net_(world_.clock, 99),
        a_node_(world_.add_node("a", "10.0.0.1")),
        b_node_(world_.add_node("b", "10.0.0.2")),
        a_stack_(net_, world_.clock, *net::Ipv4Address::parse("10.0.0.1")),
        b_stack_(net_, world_.clock, *net::Ipv4Address::parse("10.0.0.2")),
        a_fbs_(a_stack_, config_, *a_node_.keys, world_.clock, world_.rng),
        b_fbs_(b_stack_, config_, *b_node_.keys, world_.clock, world_.rng),
        a_udp_(a_stack_),
        b_udp_(b_stack_) {}

  static IpMappingConfig default_config() { return IpMappingConfig{}; }

  IpMappingConfig config_ = default_config();
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

TEST_F(IpMapTest, UdpDatagramProtectedEndToEnd) {
  util::Bytes got;
  b_udp_.bind(7, [&](net::Ipv4Address, std::uint16_t, util::Bytes payload) {
    got = std::move(payload);
  });
  a_udp_.send(b_stack_.address(), 5000, 7, util::to_bytes("secure hello"));
  net_.run();
  EXPECT_EQ(got, util::to_bytes("secure hello"));
  EXPECT_EQ(a_fbs_.counters().out_protected, 1u);
  EXPECT_EQ(b_fbs_.counters().in_accepted, 1u);
}

TEST_F(IpMapTest, WireCarriesNoPlaintext) {
  util::Bytes wire_capture;
  net_.set_tap([&](net::Ipv4Address, net::Ipv4Address, util::Bytes& frame) {
    wire_capture = frame;
    return net::SimNetwork::TapVerdict::kPass;
  });
  b_udp_.bind(7, [](net::Ipv4Address, std::uint16_t, util::Bytes) {});
  const util::Bytes secret = util::to_bytes("credit card 1234-5678");
  a_udp_.send(b_stack_.address(), 5000, 7, secret);
  net_.run();
  ASSERT_FALSE(wire_capture.empty());
  EXPECT_EQ(std::search(wire_capture.begin(), wire_capture.end(),
                        secret.begin(), secret.end()),
            wire_capture.end());
}

TEST_F(IpMapTest, OnWireTamperingDropped) {
  int delivered = 0;
  b_udp_.bind(7, [&](net::Ipv4Address, std::uint16_t, util::Bytes) {
    ++delivered;
  });
  net_.set_tap([&](net::Ipv4Address, net::Ipv4Address, util::Bytes& frame) {
    if (frame.size() > 40) frame[40] ^= 0x80;  // flip a bit past the headers
    return net::SimNetwork::TapVerdict::kPass;
  });
  a_udp_.send(b_stack_.address(), 5000, 7, util::to_bytes("payload"));
  net_.run();
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(b_stack_.counters().hook_drops_in, 1u);
}

TEST_F(IpMapTest, SecretPolicySelectsPerFlow) {
  // Encrypt only port 443 traffic; port 7 goes authenticated-plaintext.
  IpMappingConfig cfg;
  cfg.secret_policy = [](const FlowAttributes& attrs) {
    return attrs.destination_port == 443;
  };
  net::IpStack stack(net_, world_.clock, *net::Ipv4Address::parse("10.0.0.3"));
  auto& c_node = world_.add_node("c", "10.0.0.3");
  FbsIpMapping c_fbs(stack, cfg, *c_node.keys, world_.clock, world_.rng);
  net::UdpService c_udp(stack);

  util::Bytes plain_frame, secret_frame;
  net_.set_tap([&](net::Ipv4Address, net::Ipv4Address to, util::Bytes& f) {
    if (to == b_stack_.address()) {
      if (plain_frame.empty()) plain_frame = f;
      else secret_frame = f;
    }
    return net::SimNetwork::TapVerdict::kPass;
  });
  const util::Bytes body = util::to_bytes("policy driven confidentiality");
  c_udp.send(b_stack_.address(), 1, 7, body);
  c_udp.send(b_stack_.address(), 1, 443, body);
  net_.run();
  ASSERT_FALSE(plain_frame.empty());
  ASSERT_FALSE(secret_frame.empty());
  EXPECT_NE(std::search(plain_frame.begin(), plain_frame.end(), body.begin(),
                        body.end()),
            plain_frame.end());
  EXPECT_EQ(std::search(secret_frame.begin(), secret_frame.end(),
                        body.begin(), body.end()),
            secret_frame.end());
}

TEST_F(IpMapTest, BypassHostSkipsFbs) {
  // Traffic to the directory host must travel the secure flow bypass.
  const auto dir_host = *net::Ipv4Address::parse("10.0.0.100");
  IpMappingConfig cfg;
  cfg.bypass_hosts = {dir_host};
  net::IpStack stack(net_, world_.clock, *net::Ipv4Address::parse("10.0.0.4"));
  auto& d_node = world_.add_node("d", "10.0.0.4");
  FbsIpMapping d_fbs(stack, cfg, *d_node.keys, world_.clock, world_.rng);
  net::UdpService d_udp(stack);

  net::IpStack dir_stack(net_, world_.clock, dir_host);
  net::UdpService dir_udp(dir_stack);
  util::Bytes got;
  dir_udp.bind(389, [&](net::Ipv4Address, std::uint16_t, util::Bytes p) {
    got = std::move(p);
  });
  d_udp.send(dir_host, 1, 389, util::to_bytes("cert fetch"));
  net_.run();
  EXPECT_EQ(got, util::to_bytes("cert fetch"));  // no FBS header in the way
  EXPECT_EQ(d_fbs.counters().out_bypassed, 1u);
  EXPECT_EQ(d_fbs.counters().out_protected, 0u);
}

TEST_F(IpMapTest, KeyUnavailableFailsClosed) {
  // 10.0.0.5 has no published certificate: output must drop, not leak.
  net::IpStack stack(net_, world_.clock, *net::Ipv4Address::parse("10.0.0.6"));
  auto& e_node = world_.add_node("e", "10.0.0.6");
  FbsIpMapping e_fbs(stack, IpMappingConfig{}, *e_node.keys, world_.clock,
                     world_.rng);
  net::UdpService e_udp(stack);

  const auto unknown = *net::Ipv4Address::parse("10.0.0.5");
  net::IpStack unknown_stack(net_, world_.clock, unknown);
  net::UdpService unknown_udp(unknown_stack);
  int delivered = 0;
  unknown_udp.bind(7, [&](net::Ipv4Address, std::uint16_t, util::Bytes) {
    ++delivered;
  });

  EXPECT_FALSE(e_udp.send(unknown, 1, 7, util::to_bytes("must not leak")));
  net_.run();
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(e_fbs.counters().out_dropped, 1u);
}

TEST_F(IpMapTest, FragmentationBelowFbsIsTransparent) {
  // FBS sits above fragmentation: a 5KB datagram fragments on the wire and
  // reassembles before FBSReceive.
  util::Bytes got;
  b_udp_.bind(7, [&](net::Ipv4Address, std::uint16_t, util::Bytes p) {
    got = std::move(p);
  });
  const util::Bytes big(5000, 'F');
  a_udp_.send(b_stack_.address(), 1, 7, big);
  net_.run();
  EXPECT_EQ(got, big);
  EXPECT_GT(a_stack_.counters().fragments_out, 1u);
  EXPECT_EQ(b_fbs_.counters().in_accepted, 1u);
}

TEST_F(IpMapTest, EffectivePayloadAccountsForFbsHeader) {
  // The tcp_output fix: effective payload budget shrinks by the FBS header.
  EXPECT_EQ(a_stack_.effective_payload_size(),
            1500u - net::Ipv4Header::kSize - a_fbs_.header_overhead());
  // A DF datagram sized to the budget must go through unfragmented.
  util::Bytes got;
  b_udp_.bind(9, [&](net::Ipv4Address, std::uint16_t, util::Bytes p) {
    got = std::move(p);
  });
  const std::size_t budget =
      a_stack_.effective_payload_size() - net::UdpHeader::kSize;
  EXPECT_TRUE(a_udp_.send(b_stack_.address(), 1, 9, util::Bytes(budget, 'd'),
                          /*dont_fragment=*/true));
  net_.run();
  EXPECT_EQ(got.size(), budget);
  EXPECT_EQ(a_stack_.counters().df_drops, 0u);
}

TEST_F(IpMapTest, OversizedDfDatagramDropsWithoutFix) {
  // A full cipher block over the budget with DF set: even minimal PKCS#7
  // padding cannot squeeze it under the MTU, fragmentation is forbidden, so
  // the packet is dropped -- exactly the tcp_output.c bug the paper fixed.
  const std::size_t budget =
      a_stack_.effective_payload_size() - net::UdpHeader::kSize;
  EXPECT_FALSE(a_udp_.send(b_stack_.address(), 1, 9,
                           util::Bytes(budget + 9, 'd'), true));
  EXPECT_EQ(a_stack_.counters().df_drops, 1u);
}

TEST_F(IpMapTest, ReplayedFrameAcceptedWithinWindowByDefault) {
  // Record a frame and re-inject it: the paper's window scheme accepts it.
  util::Bytes recorded;
  net_.set_tap([&](net::Ipv4Address, net::Ipv4Address, util::Bytes& f) {
    recorded = f;
    return net::SimNetwork::TapVerdict::kPass;
  });
  int delivered = 0;
  b_udp_.bind(7, [&](net::Ipv4Address, std::uint16_t, util::Bytes) {
    ++delivered;
  });
  a_udp_.send(b_stack_.address(), 1, 7, util::to_bytes("replay me"));
  net_.run();
  ASSERT_FALSE(recorded.empty());
  net_.inject(b_stack_.address(), recorded);
  net_.run();
  EXPECT_EQ(delivered, 2);
}

TEST_F(IpMapTest, ReplayedFrameRejectedAfterWindow) {
  util::Bytes recorded;
  net_.set_tap([&](net::Ipv4Address, net::Ipv4Address, util::Bytes& f) {
    recorded = f;
    return net::SimNetwork::TapVerdict::kPass;
  });
  int delivered = 0;
  b_udp_.bind(7, [&](net::Ipv4Address, std::uint16_t, util::Bytes) {
    ++delivered;
  });
  a_udp_.send(b_stack_.address(), 1, 7, util::to_bytes("replay me"));
  net_.run();
  world_.clock.advance(util::minutes(10));  // beyond the default window
  net_.inject(b_stack_.address(), recorded);
  net_.run();
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(
      b_fbs_.counters()
          .in_rejected[static_cast<std::size_t>(ReceiveError::kStale)],
      1u);
}

TEST_F(IpMapTest, NonTransportProtocolPassesUnmodified) {
  // Raw IP (e.g. ICMP) is out of FBS scope (footnote 10).
  util::Bytes got;
  b_stack_.register_protocol(net::IpProto::kIcmp,
                             [&](const net::Ipv4Header&, util::Bytes p) {
                               got = std::move(p);
                             });
  a_stack_.output(b_stack_.address(), net::IpProto::kIcmp,
                  util::to_bytes("echo request"));
  net_.run();
  EXPECT_EQ(got, util::to_bytes("echo request"));
  EXPECT_EQ(a_fbs_.counters().out_raw_ip, 1u);
  EXPECT_EQ(b_fbs_.counters().in_raw_ip, 1u);
}

/// Make `stack` seal every datagram at once: admit, then seal it alone
/// before output() goes on, so nothing ever waits in the seal queue. The
/// reference for the seal-queue equivalence tests.
void seal_at_admit(net::IpStack& stack) {
  net::IpStack::SecurityHooks hooks = stack.security_hooks();
  hooks.admit = [admit = hooks.admit,
                 seal = hooks.seal](net::IpStack::OutputDatagram& d) {
    if (!admit(d)) return false;
    if (d.seal) seal({&d, 1});
    d.seal = false;
    return true;
  };
  hooks.seal = nullptr;
  stack.set_security_hooks(std::move(hooks));
}

/// Every IP-layer, mapping and engine counter of a host, except the ones
/// that describe how its seal queue drained.
void add_counters(std::map<std::string, std::uint64_t>& c,
                  const std::string& host, const net::IpStack& s,
                  FbsIpMapping* m) {
  const auto& k = s.counters();
  c[host + ".packets_in"] = k.packets_in;
  c[host + ".packets_out"] = k.packets_out;
  c[host + ".fragments_out"] = k.fragments_out;
  c[host + ".df_drops"] = k.df_drops;
  c[host + ".parse_errors"] = k.parse_errors;
  c[host + ".not_for_us"] = k.not_for_us;
  c[host + ".forwarded"] = k.forwarded;
  c[host + ".hook_drops_in"] = k.hook_drops_in;
  c[host + ".hook_drops_out"] = k.hook_drops_out;
  c[host + ".no_protocol"] = k.no_protocol;
  c[host + ".delivered"] = k.delivered;
  c[host + ".deferred_in"] = k.deferred_in;
  c[host + ".reassembly_expired"] = k.reassembly_expired;
  if (!m) return;
  const auto& f = m->counters();
  c[host + ".out_protected"] = f.out_protected;
  c[host + ".out_bypassed"] = f.out_bypassed;
  c[host + ".out_raw_ip"] = f.out_raw_ip;
  c[host + ".out_dropped"] = f.out_dropped;
  c[host + ".in_accepted"] = f.in_accepted;
  c[host + ".in_bypassed"] = f.in_bypassed;
  c[host + ".in_raw_ip"] = f.in_raw_ip;
  for (std::size_t e = 0; e < f.in_rejected.size(); ++e)
    c[host + ".in_rejected." + std::to_string(e)] = f.in_rejected[e];
  const FbsEndpoint& ep = m->endpoint();
  const SendStats send = ep.send_stats();
  c[host + ".send.datagrams"] = send.datagrams;
  c[host + ".send.encrypted"] = send.encrypted;
  c[host + ".send.flow_keys_derived"] = send.flow_keys_derived;
  c[host + ".send.key_unavailable"] = send.key_unavailable;
  c[host + ".send.lifetime_rekeys"] = send.lifetime_rekeys;
  const ReceiveStats recv = ep.receive_stats();
  c[host + ".recv.accepted"] = recv.accepted;
  c[host + ".recv.flow_keys_derived"] = recv.flow_keys_derived;
  for (std::size_t e = 0; e < recv.by_kind.size(); ++e)
    c[host + ".recv.rejected." + std::to_string(e)] = recv.by_kind[e];
  for (const auto& [name, cache] :
       {std::pair{"tfkc", ep.tfkc_stats()}, std::pair{"rfkc", ep.rfkc_stats()}}) {
    c[host + "." + name + ".hits"] = cache.hits;
    c[host + "." + name + ".misses"] = cache.misses();
  }
}

/// A Transport in front of a SimNetwork that records the receive batches
/// it passes up and, with `split`, hands each frame of a batch to the sink
/// alone -- the same frames at the same virtual times, one at a time.
class BatchProbe : public net::Transport {
 public:
  BatchProbe(net::SimNetwork& net, bool split) : net_(net), split_(split) {}

  void attach(net::Ipv4Address addr, ReceiveFn receive) override {
    net_.attach(addr, [this, receive = std::move(receive)](
                          std::span<const util::Bytes> frames) {
      largest_batch_ = std::max(largest_batch_, frames.size());
      if (!split_) {
        receive(frames);
        return;
      }
      for (const util::Bytes& f : frames) receive({&f, 1});
    });
  }
  void detach(net::Ipv4Address addr) override { net_.detach(addr); }
  void hold(Holder& holder) override { net_.hold(holder); }
  void release(Holder& holder) override { net_.release(holder); }
  void send(net::Ipv4Address from, net::Ipv4Address to,
            util::Bytes frame) override {
    net_.send(from, to, std::move(frame));
  }
  void call_later(util::TimeUs delay, std::function<void()> fn) override {
    net_.call_later(delay, std::move(fn));
  }
  Totals totals() const override { return net_.totals(); }
  void register_metrics(obs::MetricsRegistry& registry,
                        const std::string& prefix) const override {
    net_.register_metrics(registry, prefix);
  }

  std::size_t largest_batch() const { return largest_batch_; }

 private:
  net::SimNetwork& net_;
  bool split_;
  std::size_t largest_batch_ = 0;
};

/// One world of the receive-batch equivalence test: FBS hosts a and b, and
/// a plain host c that b exempts as a bypass host, on one instant segment.
/// With `frame_at_a_time` every stack receives its frames one per call;
/// otherwise a burst reaches a stack as one batch.
class BatchWorld {
 public:
  explicit BatchWorld(bool frame_at_a_time)
      : world_(707),
        net_(world_.clock, 3),
        wire_(net_, frame_at_a_time),
        a_node_(world_.add_node("a", "10.0.0.1")),
        b_node_(world_.add_node("b", "10.0.0.2")),
        a_stack_(wire_, world_.clock, kA),
        b_stack_(wire_, world_.clock, kB),
        c_stack_(wire_, world_.clock, kC),
        a_fbs_(a_stack_, IpMappingConfig{}, *a_node_.keys, world_.clock,
               world_.rng),
        b_fbs_(b_stack_, b_config(), *b_node_.keys, world_.clock,
               world_.rng),
        a_udp_(a_stack_),
        b_udp_(b_stack_),
        c_udp_(c_stack_),
        a_tcp_(a_stack_, wire_, world_.rng),
        b_tcp_(b_stack_, wire_, world_.rng) {
    net::LinkParams link;
    link.delay = 0;
    net_.set_default_link(link);
    b_udp_.bind(7, [this](net::Ipv4Address from, std::uint16_t port,
                          util::Bytes p) {
      log_.push_back("udp " + from.to_string() + ":" + std::to_string(port) +
                     " " + text(p));
    });
    b_stack_.register_protocol(
        net::IpProto::kIcmp,
        [this](const net::Ipv4Header&, util::Bytes p) {
          log_.push_back("raw " + text(p));
        });
    b_tcp_.listen(80, [this](std::shared_ptr<net::TcpConnection> conn) {
      // Answers from inside delivery: the reply goes out while b's stack
      // is still dispatching the batch that carried the request.
      conn->on_receive([this, c = conn.get()](util::BytesView data) {
        log_.push_back("tcp b " + text(data));
        c->send(util::to_bytes("pong"));
      });
    });
    // Forge the second UDP datagram a sends b: flip a ciphertext bit well
    // before the padding block, so only its MAC check fails.
    net_.set_tap([this](net::Ipv4Address from, net::Ipv4Address,
                        util::Bytes& frame) {
      constexpr std::uint8_t kUdp = 17;
      if (from == kA && frame[9] == kUdp && ++a_udp_frames_ == 2)
        frame[frame.size() - 40] ^= 0x01;
      return net::SimNetwork::TapVerdict::kPass;
    });
  }

  /// The traffic, the same in both worlds.
  void run() {
    auto conn = a_tcp_.connect(kB, 80);
    conn->on_receive([this](util::BytesView data) {
      log_.push_back("tcp a " + text(data));
    });
    net_.run();
    conn->send(util::to_bytes("ping"));
    for (int i = 0; i < 8; ++i) {
      a_udp_.send(kB, static_cast<std::uint16_t>(5000 + i % 2), 7,
                  util::to_bytes("burst " + std::to_string(i) +
                                 std::string(100, '.')));
      if (i == 2) {
        // Queued between two frames of the burst.
        net_.call_later(util::TimeUs{0}, [this] {
          log_.push_back("timer");
          a_udp_.send(kB, 5009, 7, util::to_bytes("from the timer"));
        });
      }
      if (i == 4) c_udp_.send(kB, 6000, 7, util::to_bytes("bypass"));
      if (i == 5) a_stack_.output(kB, net::IpProto::kIcmp,
                                  util::to_bytes("raw ip"));
    }
    a_udp_.send(kB, 5000, 7, util::Bytes(4000, 'f'));  // three fragments
    a_udp_.send(kB, 5001, 7, util::to_bytes("after the fragments"));
    net_.run();
  }

  /// Every counter of the IP layer, the mappings and the engines.
  std::map<std::string, std::uint64_t> counters() {
    std::map<std::string, std::uint64_t> c;
    add_counters(c, "a", a_stack_, &a_fbs_);
    add_counters(c, "b", b_stack_, &b_fbs_);
    add_counters(c, "c", c_stack_, nullptr);
    return c;
  }

  const std::vector<std::string>& log() const { return log_; }
  std::size_t largest_batch() const { return wire_.largest_batch(); }

 private:
  static inline const net::Ipv4Address kA =
      *net::Ipv4Address::parse("10.0.0.1");
  static inline const net::Ipv4Address kB =
      *net::Ipv4Address::parse("10.0.0.2");
  static inline const net::Ipv4Address kC =
      *net::Ipv4Address::parse("10.0.0.3");

  static IpMappingConfig b_config() {
    IpMappingConfig cfg;
    cfg.bypass_hosts = {kC};
    return cfg;
  }
  static std::string text(util::BytesView b) {
    return std::string(b.begin(), b.end());
  }
  TestWorld world_;
  net::SimNetwork net_;
  BatchProbe wire_;
  TestWorld::Node& a_node_;
  TestWorld::Node& b_node_;
  net::IpStack a_stack_;
  net::IpStack b_stack_;
  net::IpStack c_stack_;
  FbsIpMapping a_fbs_;
  FbsIpMapping b_fbs_;
  net::UdpService a_udp_;
  net::UdpService b_udp_;
  net::UdpService c_udp_;
  net::TcpService a_tcp_;
  net::TcpService b_tcp_;
  std::vector<std::string> log_;
  int a_udp_frames_ = 0;
};

TEST(IpMapBatchTest, BatchesDeliverAsFrameAtATimeDoes) {
  // The same traffic through a world where bursts reach b's stack as whole
  // receive batches and one where every frame is handed up alone: the
  // batched stack must deliver the same payloads in the same order and
  // count the same at every layer. The traffic carries a forged MAC mid-burst, a
  // bypass-host datagram, a raw-IP datagram, a fragmented datagram, a
  // timer queued between two frames and a TCP exchange whose receive
  // handler sends from inside delivery.
  BatchWorld batched(/*frame_at_a_time=*/false);
  BatchWorld alone(/*frame_at_a_time=*/true);
  batched.run();
  alone.run();
  EXPECT_GT(batched.largest_batch(), 4u);  // batches did form
  EXPECT_EQ(batched.log(), alone.log());
  EXPECT_EQ(batched.counters(), alone.counters());

  // The traffic did what it says.
  const auto c = batched.counters();
  EXPECT_EQ(c.at("b.in_rejected." +
                 std::to_string(static_cast<int>(ReceiveError::kBadMac))),
            1u);
  EXPECT_EQ(c.at("b.in_bypassed"), 1u);
  EXPECT_EQ(c.at("b.in_raw_ip"), 1u);
  EXPECT_EQ(c.at("b.hook_drops_in"), 1u);
  const std::vector<std::string>& log = batched.log();
  const auto logged = [&](const std::string& entry) {
    return std::count(log.begin(), log.end(), entry);
  };
  EXPECT_EQ(logged("tcp b ping"), 1);
  EXPECT_EQ(logged("tcp a pong"), 1);
  EXPECT_EQ(logged("timer"), 1);
  EXPECT_EQ(logged("raw raw ip"), 1);
  EXPECT_EQ(logged("udp 10.0.0.3:6000 bypass"), 1);
  EXPECT_EQ(logged("udp 10.0.0.1:5001 after the fragments"), 1);
  EXPECT_EQ(logged("udp 10.0.0.1:5000 " + std::string(4000, 'f')), 1);
  EXPECT_EQ(logged("udp 10.0.0.1:5001 burst 1" + std::string(100, '.')), 0);
  EXPECT_EQ(logged("udp 10.0.0.1:5000 burst 2" + std::string(100, '.')), 1);
}

/// One world of the seal-queue equivalence test: FBS hosts a and b and a
/// plain host c, which a exempts as a bypass host, on one instant segment.
/// With `at_once` both FBS stacks seal each datagram as it is sent;
/// otherwise they queue and seal in bursts. The wire log holds every frame
/// in the order it entered the segment.
class SealWorld {
 public:
  explicit SealWorld(bool at_once)
      : world_(808),
        net_(world_.clock, 5),
        a_node_(world_.add_node("a", "10.0.0.1")),
        b_node_(world_.add_node("b", "10.0.0.2")),
        a_stack_(net_, world_.clock, kA),
        b_stack_(net_, world_.clock, kB),
        c_stack_(net_, world_.clock, kC),
        a_fbs_(a_stack_, a_config(), *a_node_.keys, world_.clock,
               world_.rng),
        b_fbs_(b_stack_, IpMappingConfig{}, *b_node_.keys, world_.clock,
               world_.rng),
        a_udp_(a_stack_),
        b_udp_(b_stack_),
        c_udp_(c_stack_),
        a_tcp_(a_stack_, net_, world_.rng),
        b_tcp_(b_stack_, net_, world_.rng) {
    if (at_once) {
      seal_at_admit(a_stack_);
      seal_at_admit(b_stack_);
    }
    net::LinkParams link;
    link.delay = 0;
    net_.set_default_link(link);
    net_.set_capture([this](net::Ipv4Address from, net::Ipv4Address to,
                            const util::Bytes& frame, bool outbound) {
      if (outbound)
        wire_.push_back(from.to_string() + ">" + to.to_string() + " " +
                        std::string(frame.begin(), frame.end()));
    });
    const auto log_udp = [this](const std::string& host) {
      return [this, host](net::Ipv4Address from, std::uint16_t port,
                          util::Bytes p) {
        log_.push_back(host + " udp " + from.to_string() + ":" +
                       std::to_string(port) + " " + text(p));
      };
    };
    b_udp_.bind(7, log_udp("b"));
    c_udp_.bind(7, log_udp("c"));
    b_stack_.register_protocol(
        net::IpProto::kIcmp, [this](const net::Ipv4Header&, util::Bytes p) {
          log_.push_back("b raw " + text(p));
        });
    b_tcp_.listen(80, [this](std::shared_ptr<net::TcpConnection> conn) {
      // Answers from inside delivery.
      conn->on_receive([this, c = conn.get()](util::BytesView data) {
        log_.push_back("tcp b " + text(data));
        c->send(util::to_bytes("pong"));
      });
    });
  }

  /// The traffic, the same in both worlds.
  void run() {
    auto conn = a_tcp_.connect(kB, 80);
    conn->on_receive([this](util::BytesView data) {
      log_.push_back("tcp a " + text(data));
    });
    net_.run();
    conn->send(util::to_bytes("ping"));
    for (int i = 0; i < 11; ++i) {
      a_udp_.send(kB, static_cast<std::uint16_t>(5000 + i % 3), 7,
                  util::to_bytes("burst " + std::to_string(i) +
                                 std::string(100, '.')));
      if (i == 2) {
        // Too big to leave unfragmented once sealed: refused at once.
        df_refused_ = !a_stack_.output(kB, net::IpProto::kUdp,
                                       util::Bytes(1460, 'x'),
                                       /*dont_fragment=*/true);
      }
      if (i == 4) a_udp_.send(kC, 6000, 7, util::to_bytes("bypass"));
      if (i == 5) a_stack_.output(kB, net::IpProto::kIcmp,
                                  util::to_bytes("raw ip"));
      if (i == 6) {
        // Set while datagrams wait in a's queue; fires in the final run.
        net_.call_later(util::TimeUs{0}, [this] {
          log_.push_back("timer 1");
          a_udp_.send(kB, 5009, 7, util::to_bytes("from timer 1"));
        });
      }
      if (i == 8) {
        // Fires between this send and the next.
        net_.call_later(util::TimeUs{0}, [this] {
          log_.push_back("timer 2");
          a_udp_.send(kB, 5009, 7, util::to_bytes("from timer 2"));
        });
        net_.run();
      }
    }
    a_udp_.send(kB, 5000, 7, util::Bytes(4000, 'f'));  // three fragments
    a_udp_.send(kB, 5001, 7, util::to_bytes("after the fragments"));
    net_.run();
  }

  std::map<std::string, std::uint64_t> counters() {
    std::map<std::string, std::uint64_t> c;
    add_counters(c, "a", a_stack_, &a_fbs_);
    add_counters(c, "b", b_stack_, &b_fbs_);
    add_counters(c, "c", c_stack_, nullptr);
    return c;
  }

  const std::vector<std::string>& log() const { return log_; }
  const std::vector<std::string>& wire() const { return wire_; }
  bool df_refused() const { return df_refused_; }
  const FbsIpMapping& a_fbs() const { return a_fbs_; }
  const net::IpStack& a_stack() const { return a_stack_; }

 private:
  static inline const net::Ipv4Address kA =
      *net::Ipv4Address::parse("10.0.0.1");
  static inline const net::Ipv4Address kB =
      *net::Ipv4Address::parse("10.0.0.2");
  static inline const net::Ipv4Address kC =
      *net::Ipv4Address::parse("10.0.0.3");

  static IpMappingConfig a_config() {
    IpMappingConfig cfg;
    cfg.bypass_hosts = {kC};
    return cfg;
  }
  static std::string text(util::BytesView b) {
    return std::string(b.begin(), b.end());
  }
  TestWorld world_;
  net::SimNetwork net_;
  TestWorld::Node& a_node_;
  TestWorld::Node& b_node_;
  net::IpStack a_stack_;
  net::IpStack b_stack_;
  net::IpStack c_stack_;
  FbsIpMapping a_fbs_;
  FbsIpMapping b_fbs_;
  net::UdpService a_udp_;
  net::UdpService b_udp_;
  net::UdpService c_udp_;
  net::TcpService a_tcp_;
  net::TcpService b_tcp_;
  std::vector<std::string> log_;
  std::vector<std::string> wire_;
  bool df_refused_ = false;
};

TEST(SealQueueTest, QueuedSealsAsSealingAtOnceDoes) {
  // The same traffic through stacks that seal every datagram as it is sent
  // and stacks that queue and seal in bursts, from the same confounder
  // seeds: the same frames must enter the wire in the same order, the
  // receivers must deliver the same payloads in the same order, and every
  // counter but the drain tallies must agree. The traffic has a DF
  // datagram refused mid-burst, a bypass-host datagram and a raw-IP one
  // between FBS datagrams, a TCP handler that sends from inside delivery,
  // a timer set while datagrams wait, one that fires between two sends,
  // and a fragmented datagram.
  SealWorld queued(/*at_once=*/false);
  SealWorld at_once(/*at_once=*/true);
  queued.run();
  at_once.run();
  EXPECT_EQ(queued.wire(), at_once.wire());
  EXPECT_EQ(queued.log(), at_once.log());
  EXPECT_EQ(queued.counters(), at_once.counters());

  // Bursts did form, and the traffic did what it says.
  const auto& q = queued.a_fbs().counters();
  EXPECT_LT(q.out_seal_bursts, q.out_sealed);
  EXPECT_GE(queued.a_stack().counters().drains_full, 1u);
  EXPECT_TRUE(queued.df_refused());
  EXPECT_TRUE(at_once.df_refused());
  const auto c = queued.counters();
  EXPECT_EQ(c.at("a.df_drops"), 1u);
  EXPECT_EQ(c.at("a.out_bypassed"), 1u);
  EXPECT_EQ(c.at("a.out_raw_ip"), 1u);
  const std::vector<std::string>& log = queued.log();
  const auto at = [&](const std::string& entry) {
    return std::find(log.begin(), log.end(), entry) - log.begin();
  };
  const auto burst = [](int i, int port) {
    return "b udp 10.0.0.1:" + std::to_string(port) + " burst " +
           std::to_string(i) + std::string(100, '.');
  };
  EXPECT_LT(at(burst(3, 5000)), at("c udp 10.0.0.1:6000 bypass"));
  EXPECT_LT(at("c udp 10.0.0.1:6000 bypass"), at(burst(5, 5002)));
  EXPECT_LT(at(burst(4, 5001)), at("b raw raw ip"));
  EXPECT_LT(at("b raw raw ip"), at(burst(6, 5000)));
  EXPECT_LT(at(burst(6, 5000)), at("timer 1"));
  EXPECT_LT(at(burst(8, 5002)), at("timer 2"));
  EXPECT_LT(at("b udp 10.0.0.1:5009 from timer 2"), at(burst(9, 5000)));
  EXPECT_LT(at("tcp b ping"), at("tcp a pong"));
  EXPECT_LT(at("tcp a pong"), static_cast<std::ptrdiff_t>(log.size()));
  EXPECT_LT(at("b udp 10.0.0.1:5001 after the fragments"),
            static_cast<std::ptrdiff_t>(log.size()));
}

TEST(SealQueueTest, SocketSenderDrainsItsQueueWhenItPolls) {
  // Over real UDP sockets on 127.0.0.1: two datagrams wait in the sender's
  // seal queue until the sender pumps its own transport, which sends them;
  // the frames are the ones a stack sealing at once sends right away.
  const auto kA = *net::Ipv4Address::parse("10.0.0.1");
  const auto kB = *net::Ipv4Address::parse("10.0.0.2");
  const auto run = [&](bool at_once) {
    std::vector<util::Bytes> sent;
    TestWorld world(909);
    auto& a = world.add_node("a", "10.0.0.1");
    auto& b = world.add_node("b", "10.0.0.2");
    net::UdpTransport ta(world.clock);
    net::UdpTransport tb(world.clock);
    if (!ta.ok() || !tb.ok()) {
      ADD_FAILURE() << "no loopback socket: " << ta.error() << tb.error();
      return sent;
    }
    ta.add_peer(kB, "127.0.0.1", tb.local_port());
    tb.add_peer(kA, "127.0.0.1", ta.local_port());
    ta.set_capture([&](net::Ipv4Address, net::Ipv4Address,
                       const util::Bytes& frame, bool outbound) {
      if (outbound) sent.push_back(frame);
    });
    net::IpStack sa(ta, world.clock, kA);
    net::IpStack sb(tb, world.clock, kB);
    FbsIpMapping fa(sa, IpMappingConfig{}, *a.keys, world.clock, world.rng);
    FbsIpMapping fb(sb, IpMappingConfig{}, *b.keys, world.clock, world.rng);
    if (at_once) seal_at_admit(sa);
    net::UdpService ua(sa);
    net::UdpService ub(sb);
    std::vector<std::string> got;
    ub.bind(7, [&](net::Ipv4Address, std::uint16_t, util::Bytes p) {
      got.emplace_back(p.begin(), p.end());
    });

    EXPECT_TRUE(ua.send(kB, 5000, 7, util::to_bytes("one")));
    EXPECT_TRUE(ua.send(kB, 5001, 7, util::to_bytes("two")));
    EXPECT_EQ(sent.size(), at_once ? 2u : 0u);
    ta.poll(util::TimeUs{0});
    EXPECT_EQ(sent.size(), 2u);
    EXPECT_EQ(sa.counters().drains_pump, at_once ? 0u : 1u);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (got.size() < 2 && std::chrono::steady_clock::now() < deadline)
      tb.poll(util::TimeUs{0});
    EXPECT_EQ(got, (std::vector<std::string>{"one", "two"}));
    return sent;
  };
  EXPECT_EQ(run(/*at_once=*/false), run(/*at_once=*/true));
}

}  // namespace
}  // namespace fbs::core
