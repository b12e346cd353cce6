// Interoperability: the algorithm identification field means a receiver
// processes whatever valid suite the header declares, regardless of its own
// sending configuration -- endpoints with different configured suites still
// interoperate (the generality Section 5.2 wants from the field).
#include <gtest/gtest.h>

#include "fbs/engine.hpp"
#include "support/protect.hpp"
#include "support/world.hpp"

namespace fbs::core {
namespace {

using testing::ReceivedDatagram;
using testing::protect;
using testing::unprotect;
using testing::TestWorld;

Datagram make_datagram(const Principal& src, const Principal& dst) {
  Datagram d;
  d.source = src;
  d.destination = dst;
  d.attrs.protocol = 17;
  d.attrs.source_port = 1;
  d.attrs.destination_port = 2;
  d.body = util::to_bytes("suite agility payload");
  return d;
}

struct SuitePair {
  crypto::AlgorithmSuite sender;
  crypto::AlgorithmSuite receiver;
};

class SuiteAgility : public ::testing::TestWithParam<SuitePair> {};

TEST_P(SuiteAgility, MixedConfigurationsInteroperate) {
  const SuitePair pair = GetParam();
  TestWorld world(606060);
  auto& a = world.add_node("a", "10.0.0.1");
  auto& b = world.add_node("b", "10.0.0.2");
  FbsConfig send_cfg;
  send_cfg.suite = pair.sender;
  FbsConfig recv_cfg;
  recv_cfg.suite = pair.receiver;  // receiver's own *sending* preference
  FbsEndpoint sender(a.principal, send_cfg, *a.keys, world.clock, world.rng);
  FbsEndpoint receiver(b.principal, recv_cfg, *b.keys, world.clock,
                       world.rng);

  const Datagram d = make_datagram(a.principal, b.principal);
  const bool secret = pair.sender.cipher != crypto::CipherAlgorithm::kNone;
  const auto wire = protect(sender, d, secret);
  ASSERT_TRUE(wire.has_value());
  auto outcome = unprotect(receiver, a.principal, *wire);
  ASSERT_TRUE(std::holds_alternative<ReceivedDatagram>(outcome));
  const auto& got = std::get<ReceivedDatagram>(outcome);
  EXPECT_EQ(got.datagram.body, d.body);
  EXPECT_EQ(got.suite, pair.sender);  // receiver reports the wire's suite
}

INSTANTIATE_TEST_SUITE_P(
    MixedSuites, SuiteAgility,
    ::testing::Values(
        // SHA1 sender, MD5-configured receiver.
        SuitePair{{crypto::MacAlgorithm::kKeyedSha1,
                   crypto::CipherAlgorithm::kDesCfb},
                  {}},
        // HMAC sender, keyed-prefix-configured receiver.
        SuitePair{{crypto::MacAlgorithm::kHmacMd5,
                   crypto::CipherAlgorithm::kDesOfb},
                  {}},
        // Auth-only sender, full-crypto receiver config.
        SuitePair{{crypto::MacAlgorithm::kHmacSha1,
                   crypto::CipherAlgorithm::kNone},
                  {}},
        // Default sender, SHA1-configured receiver.
        SuitePair{{},
                  {crypto::MacAlgorithm::kKeyedSha1,
                   crypto::CipherAlgorithm::kDesCbc}}));

TEST(Interop, ReceiverRejectsDowngradedMacLength) {
  // An attacker rewriting the suite byte to a shorter-MAC suite cannot win:
  // the parse lengths shift and the MAC check fails.
  TestWorld world(606061);
  auto& a = world.add_node("a", "10.0.0.1");
  auto& b = world.add_node("b", "10.0.0.2");
  FbsConfig sha_cfg;
  sha_cfg.suite.mac = crypto::MacAlgorithm::kKeyedSha1;
  FbsEndpoint sender(a.principal, sha_cfg, *a.keys, world.clock, world.rng);
  FbsEndpoint receiver(b.principal, FbsConfig{}, *b.keys, world.clock,
                       world.rng);
  const auto wire =
      protect(sender, make_datagram(a.principal, b.principal), false);
  util::Bytes downgraded = *wire;
  downgraded[1] = crypto::encode_suite(
      {crypto::MacAlgorithm::kKeyedMd5, crypto::CipherAlgorithm::kNone});
  auto outcome = unprotect(receiver, a.principal, downgraded);
  ASSERT_TRUE(std::holds_alternative<ReceiveError>(outcome));
}

TEST(Interop, NopSuiteNeverAcceptedAsRealTraffic) {
  // The NOP suite's "MAC" is a public constant, so a receiver that honors a
  // wire-chosen kNull suite accepts trivially forgeable datagrams (found by
  // the fuzz harness's never-accept oracle). A normally-configured receiver
  // must reject them below FBS; only an endpoint explicitly configured for
  // NOP measurement runs may accept its own traffic class.
  TestWorld world(606062);
  auto& a = world.add_node("a", "10.0.0.1");
  auto& b = world.add_node("b", "10.0.0.2");
  FbsConfig nop;
  nop.suite.mac = crypto::MacAlgorithm::kNull;
  nop.suite.cipher = crypto::CipherAlgorithm::kNone;
  FbsEndpoint sender(a.principal, nop, *a.keys, world.clock, world.rng);
  FbsEndpoint receiver(b.principal, FbsConfig{}, *b.keys, world.clock,
                       world.rng);
  const auto wire =
      protect(sender, make_datagram(a.principal, b.principal), false);
  auto outcome = unprotect(receiver, a.principal, *wire);
  ASSERT_TRUE(std::holds_alternative<ReceiveError>(outcome));
  EXPECT_EQ(std::get<ReceiveError>(outcome), ReceiveError::kMalformed);
  EXPECT_EQ(receiver.receive_stats().rejected_malformed, 1u);
}

}  // namespace
}  // namespace fbs::core
