// unprotect_burst_into must be observably identical to running
// unprotect_into item by item: same outcomes (accepts, every rejection
// kind), same plaintexts, same stats -- only the cipher work is scheduled
// differently (cross-datagram bitsliced decrypt). Two receivers built from
// the same node keys see the same wires; one takes the per-item path, one
// the burst path, and everything they observe is compared.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "fbs/engine.hpp"
#include "support/world.hpp"

namespace fbs::core {
namespace {

using testing::TestWorld;

Datagram datagram(const Principal& src, const Principal& dst,
                  const std::string& body, std::uint16_t sport = 1000) {
  Datagram d;
  d.source = src;
  d.destination = dst;
  d.attrs.protocol = 17;
  d.attrs.source_address = src.ipv4().value;
  d.attrs.source_port = sport;
  d.attrs.destination_address = dst.ipv4().value;
  d.attrs.destination_port = 4242;
  d.body = util::to_bytes(body);
  return d;
}

/// Run `wires` through both receivers -- item by item on one, as a single
/// burst on the other -- and assert identical outcomes and bodies.
void expect_burst_equivalence(FbsEndpoint& per_item, FbsEndpoint& burst,
                              const Principal& source,
                              const std::vector<util::Bytes>& wires) {
  std::vector<ReceiveIntoOutcome> want;
  std::vector<util::Bytes> want_body(wires.size());
  WorkContext ctx;
  for (std::size_t i = 0; i < wires.size(); ++i)
    want.push_back(
        per_item.unprotect_into(ctx, source, wires[i], want_body[i]));

  std::vector<util::Bytes> got_body(wires.size());
  std::vector<ReceiveBurstItem> items(wires.size());
  for (std::size_t i = 0; i < wires.size(); ++i) {
    items[i].source = &source;
    items[i].wire = wires[i];
    items[i].body_out = &got_body[i];
  }
  WorkContext burst_ctx;
  burst.unprotect_burst_into(burst_ctx, items);

  for (std::size_t i = 0; i < wires.size(); ++i) {
    const auto* want_err = std::get_if<ReceiveError>(&want[i]);
    const auto* got_err = std::get_if<ReceiveError>(&items[i].outcome);
    ASSERT_EQ(want_err != nullptr, got_err != nullptr)
        << "item " << i << (want_err ? std::string(" per-item rejected: ") +
                                           to_string(*want_err)
                                     : " per-item accepted");
    if (want_err) {
      EXPECT_EQ(*got_err, *want_err) << "item " << i;
      continue;
    }
    const auto& want_info = std::get<ReceivedInfo>(want[i]);
    const auto& got_info = std::get<ReceivedInfo>(items[i].outcome);
    EXPECT_EQ(got_info.sfl, want_info.sfl) << i;
    EXPECT_EQ(got_info.was_secret, want_info.was_secret) << i;
    EXPECT_EQ(got_info.suite, want_info.suite) << i;
    EXPECT_EQ(got_body[i], want_body[i]) << i;
  }
  EXPECT_EQ(burst.receive_stats().accepted,
            per_item.receive_stats().accepted);
  EXPECT_EQ(burst.receive_stats().rejected(),
            per_item.receive_stats().rejected());
}

class BurstTest : public ::testing::Test {
 protected:
  BurstTest() : world_(606) {
    auto& a = world_.add_node("alice", "10.0.0.1");
    auto& b = world_.add_node("bob", "10.0.0.2");
    alice_node_ = &a;
    bob_node_ = &b;
  }

  std::unique_ptr<FbsEndpoint> sender(const FbsConfig& cfg) {
    return std::make_unique<FbsEndpoint>(alice_node_->principal, cfg,
                                         *alice_node_->keys, world_.clock,
                                         world_.rng);
  }
  std::unique_ptr<FbsEndpoint> receiver(const FbsConfig& cfg) {
    return std::make_unique<FbsEndpoint>(bob_node_->principal, cfg,
                                         *bob_node_->keys, world_.clock,
                                         world_.rng);
  }

  TestWorld world_;
  testing::TestWorld::Node* alice_node_ = nullptr;
  testing::TestWorld::Node* bob_node_ = nullptr;
};

TEST_F(BurstTest, MixedBurstMatchesPerItemPath) {
  // Valid secret datagrams across several flows (different keys in one
  // batch), a plaintext datagram, a tampered body, a truncated wire, and a
  // garbage wire: every slot's verdict and plaintext must match the
  // per-item path.
  FbsConfig cfg;
  auto alice = sender(cfg);
  std::vector<util::Bytes> wires;
  for (std::uint16_t flow = 0; flow < 8; ++flow) {
    for (int i = 0; i < 4; ++i) {
      const auto wire = alice->protect(
          datagram(alice->self(), bob_node_->principal,
                   "flow " + std::to_string(flow) + " datagram " +
                       std::to_string(i) + std::string(120, 'x'),
                   static_cast<std::uint16_t>(2000 + flow)),
          /*secret=*/true);
      ASSERT_TRUE(wire.has_value());
      wires.push_back(*wire);
    }
  }
  const auto plain = alice->protect(
      datagram(alice->self(), bob_node_->principal, "in the clear"),
      /*secret=*/false);
  ASSERT_TRUE(plain.has_value());
  wires.push_back(*plain);
  util::Bytes tampered = wires[3];
  tampered.back() ^= 0xFF;
  wires.push_back(tampered);
  wires.push_back(util::Bytes(wires[0].begin(), wires[0].begin() + 9));
  wires.push_back(util::Bytes(64, 0xEE));

  auto bob_item = receiver(cfg);
  auto bob_burst = receiver(cfg);
  expect_burst_equivalence(*bob_item, *bob_burst, alice->self(), wires);
}

TEST_F(BurstTest, MixedSuitesInOneBurst) {
  // Wire-negotiated suites decide batch eligibility per item: DES-CBC rides
  // the lanes, CFB and 3DES take the scalar path inside the same burst, and
  // all of them must agree with the per-item verdicts.
  FbsConfig cbc_cfg;
  FbsConfig cfb_cfg;
  cfb_cfg.suite.cipher = crypto::CipherAlgorithm::kDesCfb;
  FbsConfig des3_cfg;
  des3_cfg.suite.cipher = crypto::CipherAlgorithm::kDes3Ede;
  auto send_cbc = sender(cbc_cfg);
  auto send_cfb = sender(cfb_cfg);
  auto send_des3 = sender(des3_cfg);

  std::vector<util::Bytes> wires;
  for (int i = 0; i < 6; ++i) {
    FbsEndpoint& s = i % 3 == 0 ? *send_cbc : i % 3 == 1 ? *send_cfb
                                                         : *send_des3;
    const auto wire = s.protect(
        datagram(s.self(), bob_node_->principal,
                 "suite mix " + std::to_string(i) + std::string(90, 'y'),
                 static_cast<std::uint16_t>(3000 + i)),
        /*secret=*/true);
    ASSERT_TRUE(wire.has_value());
    wires.push_back(*wire);
  }

  FbsConfig rx_cfg;
  auto bob_item = receiver(rx_cfg);
  auto bob_burst = receiver(rx_cfg);
  expect_burst_equivalence(*bob_item, *bob_burst, send_cbc->self(), wires);
}

TEST_F(BurstTest, IntraBurstDuplicateRejectedUnderStrictReplay) {
  // Both copies of a duplicated wire pass the freshness check before either
  // commits (one critical section per burst); the seen() probe must still
  // reject exactly the second copy, matching the per-item path.
  FbsConfig cfg;
  cfg.strict_replay = true;
  auto alice = sender(cfg);
  const auto wire = alice->protect(
      datagram(alice->self(), bob_node_->principal,
               std::string(200, 'd') + " duplicated"),
      /*secret=*/true);
  ASSERT_TRUE(wire.has_value());
  std::vector<util::Bytes> wires{*wire, *wire, *wire};

  auto bob_item = receiver(cfg);
  auto bob_burst = receiver(cfg);
  expect_burst_equivalence(*bob_item, *bob_burst, alice->self(), wires);
  EXPECT_EQ(bob_burst->receive_stats().accepted, 1u);
  EXPECT_EQ(bob_burst->receive_stats().rejected_by(ReceiveError::kReplay),
            2u);
}

TEST_F(BurstTest, DuplicatesAdmittedWithoutStrictReplay) {
  // Window-only freshness admits within-window duplicates by design; the
  // burst path must not accidentally tighten that.
  FbsConfig cfg;
  auto alice = sender(cfg);
  const auto wire = alice->protect(
      datagram(alice->self(), bob_node_->principal, "twice is fine"),
      /*secret=*/true);
  ASSERT_TRUE(wire.has_value());
  std::vector<util::Bytes> wires{*wire, *wire};

  auto bob_item = receiver(cfg);
  auto bob_burst = receiver(cfg);
  expect_burst_equivalence(*bob_item, *bob_burst, alice->self(), wires);
  EXPECT_EQ(bob_burst->receive_stats().accepted, 2u);
}

TEST_F(BurstTest, BitsliceDisabledStillMatches) {
  // bitslice_crypto = false (the fig8 scalar curve): the burst entry point
  // remains available and routes everything scalar with identical results.
  FbsConfig send_cfg;
  auto alice = sender(send_cfg);
  std::vector<util::Bytes> wires;
  for (int i = 0; i < 12; ++i) {
    const auto wire = alice->protect(
        datagram(alice->self(), bob_node_->principal,
                 "scalar burst " + std::string(100 + i, 'z'),
                 static_cast<std::uint16_t>(5000 + i % 3)),
        /*secret=*/true);
    ASSERT_TRUE(wire.has_value());
    wires.push_back(*wire);
  }
  FbsConfig rx_cfg;
  rx_cfg.bitslice_crypto = false;
  auto bob_item = receiver(rx_cfg);
  auto bob_burst = receiver(rx_cfg);
  expect_burst_equivalence(*bob_item, *bob_burst, alice->self(), wires);
  EXPECT_EQ(bob_burst->receive_stats().accepted, 12u);
}

TEST_F(BurstTest, LargeBurstSpansMultipleChunks) {
  // More items than CryptoBatch::kLanes: the chunking seam (64-item groups)
  // must not change any verdict.
  FbsConfig cfg;
  auto alice = sender(cfg);
  std::vector<util::Bytes> wires;
  for (int i = 0; i < 150; ++i) {
    const auto wire = alice->protect(
        datagram(alice->self(), bob_node_->principal,
                 "chunk seam " + std::to_string(i),
                 static_cast<std::uint16_t>(6000 + i % 5)),
        /*secret=*/true);
    ASSERT_TRUE(wire.has_value());
    wires.push_back(*wire);
  }
  auto bob_item = receiver(cfg);
  auto bob_burst = receiver(cfg);
  expect_burst_equivalence(*bob_item, *bob_burst, alice->self(), wires);
  EXPECT_EQ(bob_burst->receive_stats().accepted, 150u);
}

TEST_F(BurstTest, TinyRfkcRebuildsEvictedContextsMidBurst) {
  // rfkc_size = 1: every datagram's RFKC insert evicts its predecessor's
  // context, so by the time the burst takes context pointers only the last
  // flow is still cached and every other one is rebuilt for the group --
  // three alternating DES-CBC flows, a 3DES flow and a plaintext flow
  // included. Verdicts and plaintexts must still equal one-item bursts.
  FbsConfig cfg;
  FbsConfig des3_cfg;
  des3_cfg.suite.cipher = crypto::CipherAlgorithm::kDes3Ede;
  auto alice = sender(cfg);
  auto alice_des3 = sender(des3_cfg);
  std::vector<util::Bytes> wires;
  const auto seal = [&](FbsEndpoint& s, std::uint16_t sport, bool secret,
                        const std::string& body) {
    const auto wire =
        s.protect(datagram(s.self(), bob_node_->principal, body, sport),
                  secret);
    ASSERT_TRUE(wire.has_value());
    wires.push_back(*wire);
  };
  for (int round = 0; round < 2; ++round)
    for (std::uint16_t flow = 0; flow < 3; ++flow)
      seal(*alice, static_cast<std::uint16_t>(7000 + flow), true,
           "flow " + std::to_string(flow) + " round " +
               std::to_string(round) + std::string(300, 'r'));
  seal(*alice_des3, 7100, true, "three keys " + std::string(80, 't'));
  seal(*alice, 7200, false, "in the clear " + std::string(40, 'p'));

  FbsConfig rx_cfg;
  rx_cfg.rfkc_size = 1;
  auto bob_item = receiver(rx_cfg);
  auto bob_burst = receiver(rx_cfg);
  expect_burst_equivalence(*bob_item, *bob_burst, alice->self(), wires);
  EXPECT_EQ(bob_burst->receive_stats().accepted, wires.size());
  // One-item bursts miss once per datagram (each insert evicts the
  // previous flow). The burst misses as often; it rebuilds every context
  // but the last (the one still cached) from the flow key its miss already
  // derived, so it derives exactly as many keys as one-item bursts.
  EXPECT_EQ(bob_item->receive_stats().flow_keys_derived, wires.size());
  EXPECT_EQ(bob_burst->receive_stats().flow_keys_derived, wires.size());
}

TEST_F(BurstTest, ResuitedCopyDoesNotDisturbGenuineDatagram) {
  // A copy of a genuine wire whose suite byte was rewritten (keyed MD5 ->
  // HMAC-MD5) shares the genuine datagram's flow. Resolving the copy
  // re-suits the cached flow context; the genuine datagram earlier in the
  // same burst must still verify under its own suite and be accepted, the
  // copy rejected -- exactly as when each arrives alone.
  FbsConfig cfg;
  auto alice = sender(cfg);
  const auto wire = alice->protect(
      datagram(alice->self(), bob_node_->principal,
               "genuine " + std::string(200, 'g')),
      /*secret=*/true);
  ASSERT_TRUE(wire.has_value());
  auto header = FbsHeaderView::parse(*wire);
  ASSERT_TRUE(header.has_value());
  header->suite.mac = crypto::MacAlgorithm::kHmacMd5;
  util::Bytes resuited;
  header->serialize_into(resuited);
  resuited.insert(resuited.end(), header->body.begin(), header->body.end());
  std::vector<util::Bytes> wires{*wire, resuited};

  auto bob_item = receiver(cfg);
  auto bob_burst = receiver(cfg);
  expect_burst_equivalence(*bob_item, *bob_burst, alice->self(), wires);
  EXPECT_EQ(bob_burst->receive_stats().accepted, 1u);
  EXPECT_EQ(bob_burst->receive_stats().rejected_by(ReceiveError::kBadMac),
            1u);
}

TEST_F(BurstTest, ResuitedCopyLeavesCachedContextAlone) {
  // The suite byte is not authenticated until the MAC verifies, so a copy
  // whose suite was rewritten must not re-suit the flow's cached RFKC
  // context: after the copy is rejected the entry still carries the
  // genuine suite, and the flow's next datagram hits it with no further
  // key derivation.
  FbsConfig cfg;
  auto alice = sender(cfg);
  const Datagram d = datagram(alice->self(), bob_node_->principal,
                              "genuine " + std::string(100, 'g'));
  const auto first = alice->protect(d, /*secret=*/true);
  const auto second = alice->protect(d, /*secret=*/true);
  ASSERT_TRUE(first.has_value() && second.has_value());
  auto header = FbsHeaderView::parse(*first);
  ASSERT_TRUE(header.has_value());
  const Sfl sfl = header->sfl;
  header->suite.mac = crypto::MacAlgorithm::kHmacMd5;
  util::Bytes resuited;
  header->serialize_into(resuited);
  resuited.insert(resuited.end(), header->body.begin(), header->body.end());

  auto bob = receiver(cfg);
  WorkContext ctx;
  util::Bytes body;
  ASSERT_TRUE(std::holds_alternative<ReceivedInfo>(
      bob->unprotect_into(ctx, alice->self(), *first, body)));
  const auto forged = bob->unprotect_into(ctx, alice->self(), resuited, body);
  ASSERT_TRUE(std::holds_alternative<ReceiveError>(forged));
  EXPECT_EQ(std::get<ReceiveError>(forged), ReceiveError::kBadMac);

  // The RFKC key is (sfl, S, D).
  util::Bytes key;
  for (int i = 7; i >= 0; --i)
    key.push_back(static_cast<std::uint8_t>(sfl >> (8 * i)));
  key.insert(key.end(), alice->self().address.begin(),
             alice->self().address.end());
  key.insert(key.end(), bob->self().address.begin(),
             bob->self().address.end());
  const FlowDomain& dom = bob->shard(bob->recv_shard_of(alice->self(), sfl));
  const FlowCryptoContext* entry = dom.rfkc.peek(key);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->suite, cfg.suite);

  ASSERT_TRUE(std::holds_alternative<ReceivedInfo>(
      bob->unprotect_into(ctx, alice->self(), *second, body)));
  EXPECT_EQ(body, d.body);
  EXPECT_EQ(bob->receive_stats().flow_keys_derived, 1u);
}

TEST_F(BurstTest, ForgedMacMidBurstRejectsOnlyThatDatagram) {
  // Sixteen datagrams share the 8-lane MAC passes; a wrong tag in lane 8
  // must fail that datagram alone.
  FbsConfig cfg;
  auto alice = sender(cfg);
  std::vector<util::Bytes> wires;
  for (int i = 0; i < 16; ++i) {
    const auto wire = alice->protect(
        datagram(alice->self(), bob_node_->principal,
                 "lane " + std::to_string(i) + std::string(1300, 'm'),
                 static_cast<std::uint16_t>(7000 + i % 4)),
        /*secret=*/true);
    ASSERT_TRUE(wire.has_value());
    wires.push_back(*wire);
  }
  wires[8][FbsHeader::kFixedSize] ^= 0x01;  // first tag byte

  auto bob_item = receiver(cfg);
  auto bob_burst = receiver(cfg);
  expect_burst_equivalence(*bob_item, *bob_burst, alice->self(), wires);
  EXPECT_EQ(bob_burst->receive_stats().accepted, 15u);
  EXPECT_EQ(bob_burst->receive_stats().rejected_by(ReceiveError::kBadMac),
            1u);

  // The whole group went through one MacBatch, all sixteen on the lanes.
  auto bob_lanes = receiver(cfg);
  std::vector<util::Bytes> bodies(wires.size());
  std::vector<ReceiveBurstItem> items(wires.size());
  for (std::size_t i = 0; i < wires.size(); ++i)
    items[i] = ReceiveBurstItem{&alice->self(), wires[i], &bodies[i]};
  WorkContext ctx;
  bob_lanes->unprotect_burst_into(ctx, items);
  EXPECT_EQ(ctx.mac_batch.stats().lane_jobs, 16u);
  EXPECT_EQ(ctx.mac_batch.stats().scalar_jobs, 0u);
}

TEST_F(BurstTest, MixedMacSuitesVerifyEachAgainstItsOwnSuite) {
  // Keyed and HMAC MD5 ride the lanes, keyed and HMAC SHA-1 stay scalar,
  // all in one burst; each datagram is checked under its own suite.
  std::vector<std::unique_ptr<FbsEndpoint>> senders;
  for (const crypto::MacAlgorithm mac :
       {crypto::MacAlgorithm::kKeyedMd5, crypto::MacAlgorithm::kHmacMd5,
        crypto::MacAlgorithm::kKeyedSha1, crypto::MacAlgorithm::kHmacSha1}) {
    FbsConfig cfg;
    cfg.suite.mac = mac;
    senders.push_back(sender(cfg));
  }
  std::vector<util::Bytes> wires;
  for (int i = 0; i < 16; ++i) {
    FbsEndpoint& s = *senders[i % senders.size()];
    const auto wire = s.protect(
        datagram(s.self(), bob_node_->principal,
                 "mac mix " + std::to_string(i) + std::string(200 + i, 'q'),
                 static_cast<std::uint16_t>(7100 + i)),
        /*secret=*/i % 3 != 0);
    ASSERT_TRUE(wire.has_value());
    wires.push_back(*wire);
  }
  FbsConfig rx_cfg;
  auto bob_item = receiver(rx_cfg);
  auto bob_burst = receiver(rx_cfg);
  expect_burst_equivalence(*bob_item, *bob_burst, senders[0]->self(), wires);
  EXPECT_EQ(bob_burst->receive_stats().accepted, 16u);
}

TEST_F(BurstTest, BodiesLongerThan1600BytesStillVerify) {
  // Lane blocks are read from the bodies in place, whatever their length.
  FbsConfig cfg;
  auto alice = sender(cfg);
  std::vector<util::Bytes> wires;
  for (int i = 0; i < 12; ++i) {
    const auto wire = alice->protect(
        datagram(alice->self(), bob_node_->principal,
                 std::string(1601 + 397 * i, static_cast<char>('a' + i)),
                 static_cast<std::uint16_t>(7200 + i % 3)),
        /*secret=*/i % 2 == 0);
    ASSERT_TRUE(wire.has_value());
    wires.push_back(*wire);
  }
  auto bob_item = receiver(cfg);
  auto bob_burst = receiver(cfg);
  expect_burst_equivalence(*bob_item, *bob_burst, alice->self(), wires);
  EXPECT_EQ(bob_burst->receive_stats().accepted, 12u);
}

}  // namespace
}  // namespace fbs::core
