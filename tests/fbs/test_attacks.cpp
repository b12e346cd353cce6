// Section 6 / Section 7.1 attack analysis, executed against the real
// protocol engine: cut-and-paste, flow-key compromise containment, the
// port-reuse attack and its countermeasure.
#include <gtest/gtest.h>

#include "crypto/block_modes.hpp"
#include "crypto/des.hpp"
#include "fbs/engine.hpp"
#include "support/protect.hpp"
#include "support/world.hpp"

namespace fbs::core {
namespace {

using testing::ReceivedDatagram;
using testing::protect;
using testing::unprotect;
using testing::TestWorld;

class AttackTest : public ::testing::Test {
 protected:
  AttackTest() : world_(606) {
    auto& a = world_.add_node("alice", "10.0.0.1");
    auto& b = world_.add_node("bob", "10.0.0.2");
    alice_ = std::make_unique<FbsEndpoint>(a.principal, config_, *a.keys,
                                           world_.clock, world_.rng);
    bob_ = std::make_unique<FbsEndpoint>(b.principal, config_, *b.keys,
                                         world_.clock, world_.rng);
  }

  Datagram flow_datagram(std::uint16_t sport, std::uint16_t dport,
                         const std::string& body) {
    Datagram d;
    d.source = alice_->self();
    d.destination = bob_->self();
    d.attrs.protocol = 17;
    d.attrs.source_address = d.source.ipv4().value;
    d.attrs.source_port = sport;
    d.attrs.destination_address = d.destination.ipv4().value;
    d.attrs.destination_port = dport;
    d.body = util::to_bytes(body);
    return d;
  }

  FbsConfig config_;
  TestWorld world_;
  std::unique_ptr<FbsEndpoint> alice_;
  std::unique_ptr<FbsEndpoint> bob_;
};

TEST_F(AttackTest, CutAndPasteAcrossFlowsRejected) {
  // Splice the encrypted body of flow A into the header of flow B. Flow
  // keys differ, so the MAC cannot verify -- this is the attack raw
  // host-pair keying falls to (Section 2.2) and FBS resists.
  const auto wire_a = protect(*alice_, flow_datagram(1000, 7, "flow A data"),
                              true);
  const auto wire_b = protect(*alice_, flow_datagram(2000, 9, "flow B data"),
                              true);
  ASSERT_TRUE(wire_a && wire_b);
  const auto parsed_a = FbsHeaderView::parse(*wire_a);
  const auto parsed_b = FbsHeaderView::parse(*wire_b);
  ASSERT_TRUE(parsed_a && parsed_b);

  // Frankendatagram: header of B, body of A.
  util::Bytes spliced;
  parsed_b->serialize_into(spliced);
  spliced.insert(spliced.end(), parsed_a->body.begin(), parsed_a->body.end());
  auto outcome = unprotect(*bob_, alice_->self(), spliced);
  ASSERT_TRUE(std::holds_alternative<ReceiveError>(outcome));
  // The wrong flow key either garbles the padding (decrypt failure) or
  // survives decryption and fails the MAC; both reject the splice.
  const auto err = std::get<ReceiveError>(outcome);
  EXPECT_TRUE(err == ReceiveError::kBadMac ||
              err == ReceiveError::kDecryptFailed);
}

TEST_F(AttackTest, CutAndPasteWithinFlowRejected) {
  // Even within one flow, pairing one datagram's header with another's body
  // fails: the MAC covers the confounder and the body together.
  const auto w1 = protect(*alice_, flow_datagram(1000, 7, "first datagram"),
                          true);
  const auto w2 = protect(*alice_, flow_datagram(1000, 7, "second datagram"),
                          true);
  const auto p1 = FbsHeaderView::parse(*w1);
  const auto p2 = FbsHeaderView::parse(*w2);
  util::Bytes spliced;
  p1->serialize_into(spliced);
  spliced.insert(spliced.end(), p2->body.begin(), p2->body.end());
  auto outcome = unprotect(*bob_, alice_->self(), spliced);
  ASSERT_TRUE(std::holds_alternative<ReceiveError>(outcome));
}

TEST_F(AttackTest, CompromisedFlowKeyDoesNotUnlockSiblingFlow) {
  // Section 6.1/7.4: an attacker holding flow A's key can forge inside A
  // but learns nothing usable against flow B.
  const auto wire_a = protect(*alice_, flow_datagram(1000, 7, "A"), true);
  const auto wire_b = protect(*alice_, flow_datagram(2000, 9, "B secret"),
                              true);
  const auto parsed_a = FbsHeaderView::parse(*wire_a);
  const auto parsed_b = FbsHeaderView::parse(*wire_b);

  // Reconstruct flow A's key the way the receiver would (simulating its
  // compromise).
  const auto master = world_["bob"].keys->master_key(alice_->self());
  ASSERT_TRUE(master.has_value());
  crypto::Md5 h;
  const FlowKey key_a = derive_flow_key(h, parsed_a->sfl, *master,
                                        alice_->self(), bob_->self());
  const FlowKey key_b = derive_flow_key(h, parsed_b->sfl, *master,
                                        alice_->self(), bob_->self());
  EXPECT_NE(key_a, key_b);

  // key_a decrypts flow A...
  const crypto::Des des_a(util::BytesView(key_a).subspan(0, 8));
  const std::uint64_t iv_a =
      static_cast<std::uint64_t>(parsed_a->confounder) << 32 |
      parsed_a->confounder;
  const auto plain_a =
      crypto::decrypt(des_a, crypto::CipherMode::kCbc, iv_a, parsed_a->body);
  ASSERT_TRUE(plain_a.has_value());
  EXPECT_EQ(*plain_a, util::to_bytes("A"));

  // ...but not flow B.
  const std::uint64_t iv_b =
      static_cast<std::uint64_t>(parsed_b->confounder) << 32 |
      parsed_b->confounder;
  const auto bogus =
      crypto::decrypt(des_a, crypto::CipherMode::kCbc, iv_b, parsed_b->body);
  if (bogus.has_value()) {
    EXPECT_NE(*bogus, util::to_bytes("B secret"));
  }
}

TEST_F(AttackTest, ForgedSflCannotHijackTraffic) {
  // An attacker rewriting the sfl field redirects the receiver to a
  // different flow key; the MAC check then fails.
  const auto wire = protect(*alice_, flow_datagram(1000, 7, "genuine"), true);
  util::Bytes forged = *wire;
  forged[2] ^= 0x01;  // first sfl byte
  auto outcome = unprotect(*bob_, alice_->self(), forged);
  ASSERT_TRUE(std::holds_alternative<ReceiveError>(outcome));
  const auto err = std::get<ReceiveError>(outcome);
  EXPECT_TRUE(err == ReceiveError::kBadMac ||
              err == ReceiveError::kDecryptFailed);
}

TEST_F(AttackTest, PortReuseAttackWindowExistsWithinThreshold) {
  // Section 7.1's port-reuse attack: a conversation ends, the attacker
  // grabs the same port within THRESHOLD, and replayed datagrams are
  // happily decrypted for it -- because the FAM cannot detect the ownership
  // change. We demonstrate the mechanics: within the threshold the same
  // five-tuple keeps the same sfl and key.
  const auto w1 = protect(*alice_, flow_datagram(1000, 7, "for old owner"),
                          true);
  const auto r1 = unprotect(*bob_, alice_->self(), *w1);
  ASSERT_TRUE(std::holds_alternative<ReceivedDatagram>(r1));
  const Sfl sfl_before = std::get<ReceivedDatagram>(r1).sfl;

  // "Old owner" exits; attacker reuses the port 10 seconds later.
  world_.clock.advance(util::seconds(10));
  const auto w2 = protect(*alice_, flow_datagram(1000, 7, "for attacker"),
                          true);
  const auto r2 = unprotect(*bob_, alice_->self(), *w2);
  ASSERT_TRUE(std::holds_alternative<ReceivedDatagram>(r2));
  EXPECT_EQ(std::get<ReceivedDatagram>(r2).sfl, sfl_before);  // same flow!
}

TEST_F(AttackTest, PortReuseCounteredByThresholdWait) {
  // The paper's fix: delay port reallocation by THRESHOLD. After the wait
  // the FAM starts a fresh flow with a fresh key.
  const auto w1 = protect(*alice_, flow_datagram(1000, 7, "old"), true);
  const auto r1 = unprotect(*bob_, alice_->self(), *w1);
  const Sfl sfl_before = std::get<ReceivedDatagram>(r1).sfl;

  world_.clock.advance(config_.flow_threshold + util::seconds(1));
  const auto w2 = protect(*alice_, flow_datagram(1000, 7, "new"), true);
  const auto r2 = unprotect(*bob_, alice_->self(), *w2);
  EXPECT_NE(std::get<ReceivedDatagram>(r2).sfl, sfl_before);
}

TEST_F(AttackTest, PortReuseCounteredByExplicitRekey) {
  // Alternative countermeasure using the rekey hook: the sending host
  // rekeys the tuple when the port is reallocated.
  Datagram d = flow_datagram(1000, 7, "old");
  const auto w1 = protect(*alice_, d, true);
  const auto r1 = unprotect(*bob_, alice_->self(), *w1);
  const Sfl sfl_before = std::get<ReceivedDatagram>(r1).sfl;

  alice_->rekey(d.attrs);
  const auto w2 = protect(*alice_, flow_datagram(1000, 7, "new"), true);
  const auto r2 = unprotect(*bob_, alice_->self(), *w2);
  EXPECT_NE(std::get<ReceivedDatagram>(r2).sfl, sfl_before);
}

TEST_F(AttackTest, ReflectedDatagramRejected) {
  // Bounce alice's datagram back at her: flows are unidirectional, so the
  // reflected copy must not verify for the reverse direction.
  const auto wire = protect(*alice_, flow_datagram(1000, 7, "outbound"), true);
  auto outcome = unprotect(*alice_, bob_->self(), *wire);
  ASSERT_TRUE(std::holds_alternative<ReceiveError>(outcome));
  const auto err = std::get<ReceiveError>(outcome);
  EXPECT_TRUE(err == ReceiveError::kBadMac ||
              err == ReceiveError::kDecryptFailed);
}

TEST_F(AttackTest, TimestampForgeryCannotExtendLifetime) {
  // Pushing the timestamp forward to defeat staleness breaks the MAC.
  const auto wire = protect(*alice_, flow_datagram(1000, 7, "fresh"), false);
  world_.clock.advance(util::minutes(10));
  util::Bytes forged = *wire;
  // timestamp lives at offset 14..17 (flags1+suite1+sfl8+confounder4).
  const std::uint32_t new_ts =
      util::to_header_minutes(world_.clock.now());
  forged[14] = static_cast<std::uint8_t>(new_ts >> 24);
  forged[15] = static_cast<std::uint8_t>(new_ts >> 16);
  forged[16] = static_cast<std::uint8_t>(new_ts >> 8);
  forged[17] = static_cast<std::uint8_t>(new_ts);
  auto outcome = unprotect(*bob_, alice_->self(), forged);
  ASSERT_TRUE(std::holds_alternative<ReceiveError>(outcome));
  EXPECT_EQ(std::get<ReceiveError>(outcome), ReceiveError::kBadMac);
}

}  // namespace
}  // namespace fbs::core
