#include "fbs/ip_map.hpp"
#include "net/simnet.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "net/tcp.hpp"
#include "net/udp.hpp"
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

  /// Every counter of the IP layer, the mapping and the receiving engine.
  std::map<std::string, std::uint64_t> counters() {
    std::map<std::string, std::uint64_t> c;
    const auto ip = [&](const std::string& host, const net::IpStack& s) {
      const auto& k = s.counters();
      c[host + ".packets_in"] = k.packets_in;
      c[host + ".packets_out"] = k.packets_out;
      c[host + ".fragments_out"] = k.fragments_out;
      c[host + ".parse_errors"] = k.parse_errors;
      c[host + ".not_for_us"] = k.not_for_us;
      c[host + ".hook_drops_in"] = k.hook_drops_in;
      c[host + ".hook_drops_out"] = k.hook_drops_out;
      c[host + ".no_protocol"] = k.no_protocol;
      c[host + ".delivered"] = k.delivered;
      c[host + ".reassembly_expired"] = k.reassembly_expired;
    };
    ip("a", a_stack_);
    ip("b", b_stack_);
    ip("c", c_stack_);
    const auto map = [&](const std::string& host, const FbsIpMapping& m) {
      const auto& k = m.counters();
      c[host + ".in_accepted"] = k.in_accepted;
      c[host + ".in_bypassed"] = k.in_bypassed;
      c[host + ".in_raw_ip"] = k.in_raw_ip;
      for (std::size_t e = 0; e < k.in_rejected.size(); ++e)
        c[host + ".in_rejected." + std::to_string(e)] = k.in_rejected[e];
      c[host + ".out_protected"] = k.out_protected;
      c[host + ".out_raw_ip"] = k.out_raw_ip;
    };
    map("a", a_fbs_);
    map("b", b_fbs_);
    const auto engine = [&](const std::string& host, FbsIpMapping& m) {
      const ReceiveStats r = m.endpoint().receive_stats();
      c[host + ".recv.accepted"] = r.accepted;
      c[host + ".recv.flow_keys_derived"] = r.flow_keys_derived;
      for (std::size_t e = 0; e < r.by_kind.size(); ++e)
        c[host + ".recv.rejected." + std::to_string(e)] = r.by_kind[e];
      const CacheStats rfkc = m.endpoint().rfkc_stats();
      c[host + ".rfkc.hits"] = rfkc.hits;
      c[host + ".rfkc.misses"] = rfkc.misses();
      c[host + ".send.flow_keys_derived"] =
          m.endpoint().send_stats().flow_keys_derived;
    };
    engine("a", a_fbs_);
    engine("b", b_fbs_);
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

}  // namespace
}  // namespace fbs::core
