// One named test per decoder bug the fuzz harness shook out, each anchored
// by a minimized entry in tests/fuzz/corpus/ (replayed by
// test_fuzz_drivers). The test states the attack; the fix lives in the
// decoder.
#include <gtest/gtest.h>

#include "cert/certificate.hpp"
#include "cert/directory.hpp"
#include "fbs/engine.hpp"
#include "fbs/header.hpp"
#include "net/checksum.hpp"
#include "net/fragment.hpp"
#include "net/headers.hpp"
#include "net/icmp.hpp"
#include "net/ip.hpp"
#include "net/simnet.hpp"
#include "net/stack.hpp"
#include "net/udp.hpp"
#include "obs/metrics.hpp"
#include "support/protect.hpp"
#include "support/world.hpp"

namespace fbs {
namespace {

using testing::ReceivedDatagram;
using testing::protect;
using testing::unprotect;

const net::Ipv4Address kSrc = *net::Ipv4Address::parse("10.0.0.1");
const net::Ipv4Address kDst = *net::Ipv4Address::parse("10.0.0.2");

// --- FBS header ----------------------------------------------------------

// The reserved flag bits are outside the MAC, so an on-path attacker could
// mint distinct accepted encodings of one datagram. The parser must reject
// them.
TEST(FuzzRegression, FbsHeaderRejectsReservedFlagBits) {
  core::FbsHeaderView h;
  const util::Bytes tag(crypto::mac_size(h.suite.mac), 0);
  h.mac = tag;
  util::Bytes wire;
  h.serialize_into(wire);
  ASSERT_TRUE(core::FbsHeaderView::parse(wire).has_value());
  for (const std::uint8_t bit : {0x02, 0x04, 0x08}) {
    util::Bytes bad = wire;
    bad[0] |= bit;
    EXPECT_FALSE(core::FbsHeaderView::parse(bad).has_value()) << int(bit);
  }
}

// --- IPv4 ----------------------------------------------------------------

// The old parser conflated "IHL != 5" with "malformed", so a legitimate
// optioned packet was unparseable -- and option bytes were never part of
// the verified checksum.
TEST(FuzzRegression, Ipv4ParsesOptionsAndChecksumsThem) {
  net::Ipv4Header h;
  h.source = kSrc;
  h.destination = kDst;
  h.protocol = 17;
  h.options = {0x94, 0x04, 0x00, 0x00};  // router alert
  const util::Bytes payload{1, 2, 3};
  util::Bytes wire = h.serialize(payload);
  const auto parsed = net::Ipv4Header::parse(wire);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->header.options, h.options);
  EXPECT_EQ(parsed->payload, payload);
  // Flipping an option byte must break the header checksum.
  wire[net::Ipv4Header::kSize] ^= 0xFF;
  EXPECT_FALSE(net::Ipv4Header::parse(wire).has_value());
}

TEST(FuzzRegression, Ipv4RejectsBadIhl) {
  net::Ipv4Header h;
  h.source = kSrc;
  h.destination = kDst;
  util::Bytes wire = h.serialize(util::Bytes{1, 2, 3, 4});
  // IHL below 5: the "header" would overlap the fixed fields.
  util::Bytes low = wire;
  low[0] = 0x44;
  const std::uint16_t csum_low = net::internet_checksum(
      [&] { util::Bytes c = low; c[10] = c[11] = 0; return c; }());
  low[10] = static_cast<std::uint8_t>(csum_low >> 8);
  low[11] = static_cast<std::uint8_t>(csum_low);
  EXPECT_FALSE(net::Ipv4Header::parse(low).has_value());
  // IHL reaching past the buffer: a 60-byte header claim on 24 wire bytes.
  util::Bytes high = wire;
  high[0] = 0x4F;
  EXPECT_FALSE(net::Ipv4Header::parse(high).has_value());
}

// total_length shorter than the header would make payload extraction wrap;
// the fuzz driver found it as a crash candidate under ASan.
TEST(FuzzRegression, Ipv4RejectsTotalLengthShorterThanHeader) {
  net::Ipv4Header h;
  h.source = kSrc;
  h.destination = kDst;
  util::Bytes wire = h.serialize(util::Bytes{1, 2, 3, 4});
  wire[2] = 0;
  wire[3] = 16;  // total_length 16 < 20-byte header
  wire[10] = wire[11] = 0;
  const std::uint16_t csum = net::internet_checksum({wire.data(), 20});
  wire[10] = static_cast<std::uint8_t>(csum >> 8);
  wire[11] = static_cast<std::uint8_t>(csum);
  EXPECT_FALSE(net::Ipv4Header::parse(wire).has_value());
}

// serialize() can never emit the RFC 791 reserved fragment bit, so
// accepting it broke the encode(parse(x)) == x oracle.
TEST(FuzzRegression, Ipv4RejectsReservedFragmentFlag) {
  net::Ipv4Header h;
  h.source = kSrc;
  h.destination = kDst;
  util::Bytes wire = h.serialize(util::Bytes{1});
  wire[6] |= 0x80;
  wire[10] = wire[11] = 0;
  const std::uint16_t csum = net::internet_checksum({wire.data(), 20});
  wire[10] = static_cast<std::uint8_t>(csum >> 8);
  wire[11] = static_cast<std::uint8_t>(csum);
  EXPECT_FALSE(net::Ipv4Header::parse(wire).has_value());
}

// --- Reassembly ----------------------------------------------------------

net::Ipv4Header frag_header(std::uint16_t id, std::uint16_t offset_units,
                            bool more, std::size_t payload_size) {
  net::Ipv4Header h;
  h.source = kSrc;
  h.destination = kDst;
  h.protocol = 17;
  h.id = id;
  h.fragment_offset = offset_units;
  h.more_fragments = more;
  h.total_length =
      static_cast<std::uint16_t>(h.header_size() + payload_size);
  return h;
}

// The completed datagram used to carry the *first fragment's* total_length
// verbatim -- a 28-byte claim on a multi-kilobyte payload.
TEST(FuzzRegression, ReassemblerRewritesTotalLength) {
  util::VirtualClock clock(0);
  net::Reassembler reasm(clock);
  EXPECT_FALSE(
      reasm.push(frag_header(1, 0, true, 512), util::Bytes(512, 0xAA))
          .has_value());
  const auto done =
      reasm.push(frag_header(1, 64, false, 100), util::Bytes(100, 0xBB));
  ASSERT_TRUE(done.has_value());
  EXPECT_EQ(done->payload.size(), 612u);
  EXPECT_EQ(done->header.total_length, net::Ipv4Header::kSize + 612);
  EXPECT_FALSE(done->header.more_fragments);
  EXPECT_EQ(done->header.fragment_offset, 0);
}

// A fragment set can describe up to 8191*8 + 65535 bytes, far past what a
// 16-bit total_length can express; such sets must die before touching
// reassembly state.
TEST(FuzzRegression, ReassemblerRejectsOversizedReassembly) {
  util::VirtualClock clock(0);
  net::Reassembler reasm(clock);
  // Offset 8191 units = byte 65528 plus a 100-byte payload: impossible.
  EXPECT_FALSE(
      reasm.push(frag_header(2, 8191, false, 100), util::Bytes(100, 0xCC))
          .has_value());
  EXPECT_EQ(reasm.pending(), 0u);
}

// A non-final fragment whose size is not a multiple of 8 cannot be followed
// contiguously (RFC 791); accepting one wedged the datagram with a
// permanent hole.
TEST(FuzzRegression, ReassemblerRejectsMisalignedNonFinalFragment) {
  util::VirtualClock clock(0);
  net::Reassembler reasm(clock);
  EXPECT_FALSE(
      reasm.push(frag_header(3, 0, true, 5), util::Bytes(5, 0xDD))
          .has_value());
  EXPECT_EQ(reasm.pending(), 0u);
}

// Unbounded distinct-offset floods grew reassembly memory and the O(n)
// duplicate scan without limit; the cap drops the whole partial datagram.
TEST(FuzzRegression, ReassemblerCapsStoredPieces) {
  util::VirtualClock clock(0);
  net::Reassembler reasm(clock);
  // kMaxPieces distinct 8-byte non-final fragments, never completing.
  for (std::size_t i = 0; i < net::Reassembler::kMaxPieces; ++i) {
    ASSERT_FALSE(reasm
                     .push(frag_header(4, static_cast<std::uint16_t>(i), true,
                                       8),
                           util::Bytes(8, 0xEE))
                     .has_value());
  }
  EXPECT_EQ(reasm.pending(), 1u);
  // One more distinct piece trips the cap and erases the partial datagram.
  EXPECT_FALSE(reasm
                   .push(frag_header(4, net::Reassembler::kMaxPieces, true, 8),
                         util::Bytes(8, 0xEE))
                   .has_value());
  EXPECT_EQ(reasm.pending(), 0u);
}

// --- UDP / TCP / ICMP ----------------------------------------------------

// A >65527-byte payload used to wrap the 16-bit UDP length field and go out
// with a checksum no receiver could match.
TEST(FuzzRegression, UdpSendRefusesOversizedPayload) {
  util::VirtualClock clock(util::minutes(1));
  net::SimNetwork net(clock, 5);
  net::IpStack stack(net, clock, kSrc);
  net::UdpService udp(stack);
  EXPECT_FALSE(udp.send(kDst, 1, 2, util::Bytes(0x10000, 0)));
  EXPECT_TRUE(udp.send(kDst, 1, 2, util::Bytes(16, 0)));
}

// Flag bits and header fields TcpHeader cannot carry were silently dropped,
// so parse() accepted wires serialize() could never reproduce.
TEST(FuzzRegression, TcpRejectsUnrepresentableFlagBitsAndUrgentPointer) {
  net::TcpHeader t;
  t.source_port = 1;
  t.destination_port = 2;
  t.syn = true;
  const util::Bytes wire = t.serialize(kSrc, kDst, util::Bytes{});
  ASSERT_TRUE(net::TcpHeader::parse(kSrc, kDst, wire).has_value());

  const auto refix = [&](util::Bytes w) {
    // Recompute the pseudo-header checksum after the tamper.
    w[16] = w[17] = 0;
    util::ByteWriter ph(12);
    ph.u32(kSrc.value);
    ph.u32(kDst.value);
    ph.u8(0);
    ph.u8(6);
    ph.u16(static_cast<std::uint16_t>(w.size()));
    net::ChecksumAccumulator acc;
    acc.add(ph.view());
    acc.add(w);
    const std::uint16_t csum = acc.finish();
    w[16] = static_cast<std::uint8_t>(csum >> 8);
    w[17] = static_cast<std::uint8_t>(csum);
    return w;
  };

  for (const std::uint16_t bit : {0x0200, 0x0100, 0x0020, 0x0008}) {
    util::Bytes bad = wire;
    bad[12] |= static_cast<std::uint8_t>(bit >> 8);
    bad[13] |= static_cast<std::uint8_t>(bit);
    EXPECT_FALSE(net::TcpHeader::parse(kSrc, kDst, refix(bad)).has_value())
        << std::hex << bit;
  }
  util::Bytes urgent = wire;
  urgent[19] = 7;  // nonzero urgent pointer, URG clear
  EXPECT_FALSE(net::TcpHeader::parse(kSrc, kDst, refix(urgent)).has_value());
}

// RFC 792 echo messages carry code 0; the service used to echo an
// attacker-chosen code back verbatim.
TEST(FuzzRegression, IcmpRejectsNonzeroEchoCode) {
  net::IcmpMessage m;
  m.type = net::IcmpMessage::kEchoRequest;
  m.identifier = 1;
  m.sequence = 2;
  util::Bytes wire = m.serialize();
  ASSERT_TRUE(net::IcmpMessage::parse(wire).has_value());
  wire[1] = 1;  // code
  wire[2] = wire[3] = 0;
  const std::uint16_t csum = net::internet_checksum(wire);
  wire[2] = static_cast<std::uint8_t>(csum >> 8);
  wire[3] = static_cast<std::uint8_t>(csum);
  EXPECT_FALSE(net::IcmpMessage::parse(wire).has_value());
}

// --- Certificate / directory wire decode ---------------------------------

TEST(FuzzRegression, CertificateDecodeRejectsOversizedLengthField) {
  // A subject length just past the per-field cap: without the cap this is a
  // 64 KiB+1 allocation demand from a 4-byte input.
  const util::Bytes wire{0x00, 0x01, 0x00, 0x01};
  cert::WireDecodeError err{};
  EXPECT_FALSE(cert::PublicValueCertificate::parse(wire, &err).has_value());
  EXPECT_EQ(err, cert::WireDecodeError::kOversizedField);
}

TEST(FuzzRegression, CertificateDecodeRejectsTrailingBytes) {
  cert::PublicValueCertificate c;
  c.subject = {1};
  c.signature = {2};
  util::Bytes wire = c.serialize();
  ASSERT_TRUE(cert::PublicValueCertificate::parse(wire).has_value());
  wire.push_back(0x00);
  cert::WireDecodeError err{};
  EXPECT_FALSE(cert::PublicValueCertificate::parse(wire, &err).has_value());
  EXPECT_EQ(err, cert::WireDecodeError::kTrailingBytes);
}

TEST(FuzzRegression, DirectoryResponseRejectsUnknownStatus) {
  cert::WireDecodeError err{};
  EXPECT_FALSE(
      cert::DirectoryResponse::parse(util::Bytes{0x02, 0x03}, &err)
          .has_value());
  EXPECT_EQ(err, cert::WireDecodeError::kBadValue);
}

// The directory sits on the unprotected bypass, so every decode rejection
// is a potential attack and must be observable per kind.
TEST(FuzzRegression, DirectoryServiceCountsDecodeRejects) {
  cert::DirectoryService service;
  EXPECT_FALSE(service.serve_wire(util::Bytes{0x01}).has_value());
  EXPECT_FALSE(service.serve_wire(util::Bytes{0x7F, 0, 0, 0, 0}).has_value());
  EXPECT_FALSE(service.publish_wire(util::Bytes{0x00, 0x01, 0x00, 0x01}));
  EXPECT_EQ(service.decode_rejects(cert::WireDecodeError::kTruncated), 1u);
  EXPECT_EQ(service.decode_rejects(cert::WireDecodeError::kBadValue), 1u);
  EXPECT_EQ(service.decode_rejects(cert::WireDecodeError::kOversizedField),
            1u);

  obs::MetricsRegistry registry;
  service.register_metrics(registry, "dir");
  const auto snap = registry.snapshot();
  EXPECT_EQ(snap.counters.at("dir.decode_rejects.truncated"), 1u);
  EXPECT_EQ(snap.counters.at("dir.decode_rejects.bad-value"), 1u);
  EXPECT_EQ(snap.counters.at("dir.decode_rejects.oversized-field"), 1u);
  EXPECT_EQ(snap.counters.at("dir.decode_rejects.trailing-bytes"), 0u);
}

// A delegation whose embedded RSA key carries trailing bytes is forged or
// corrupted; the chain walker used to accept it.
TEST(FuzzRegression, DelegationKeyWithTrailingBytesFailsChainVerify) {
  testing::TestWorld world(7);
  cert::CertificateAuthority child(512, world.rng);
  const auto name = util::to_bytes("child-ca");
  const auto t0 = world.clock.now() - util::minutes(1);
  const auto t1 = world.clock.now() + util::minutes(1000);

  cert::CertificateChain chain;
  chain.leaf = child.issue(util::to_bytes("leaf"), "g", util::Bytes(8, 1),
                           t0, t1);
  chain.delegations = {world.ca.delegate(child, name, t0, t1)};
  ASSERT_EQ(cert::verify_chain(world.ca.public_key(), chain,
                               world.clock.now()),
            cert::CertStatus::kValid);

  // Re-issue the delegation over a padded key blob: the signature is
  // genuine (the root signed the padded bytes), only the key encoding is
  // non-canonical -- exactly what a decoder must not wave through.
  util::Bytes padded_key = child.public_key_bytes();
  padded_key.push_back(0x00);
  chain.delegations = {world.ca.issue(name, "rsa-ca-delegation", padded_key,
                                      t0, t1)};
  EXPECT_EQ(cert::verify_chain(world.ca.public_key(), chain,
                               world.clock.now()),
            cert::CertStatus::kBadSignature);
}

// --- Engine receive path -------------------------------------------------

// The NOP suite's "MAC" is sixteen public zero bytes. Honoring a
// wire-chosen kNull suite let anyone forge datagrams; only endpoints
// explicitly configured for NOP measurement may accept it.
TEST(FuzzRegression, EngineRejectsNullMacForgery) {
  testing::TestWorld world(11);
  auto& a = world.add_node("a", "10.0.0.1");
  auto& b = world.add_node("b", "10.0.0.2");
  core::FbsEndpoint sender(a.principal, core::FbsConfig{}, *a.keys,
                           world.clock, world.rng);
  core::FbsEndpoint receiver(b.principal, core::FbsConfig{}, *b.keys,
                             world.clock, world.rng);

  core::Datagram d;
  d.source = a.principal;
  d.destination = b.principal;
  d.attrs.protocol = 17;
  d.body = util::to_bytes("over the wire");
  const auto wire = protect(sender, d, false);
  ASSERT_TRUE(wire.has_value());

  // Forge: claim the NOP suite and present its constant all-zero tag.
  util::Bytes forged = *wire;
  forged[1] = 0x50;  // mac = kNull, cipher = kNone
  forged[0] &= 0xF0;  // clear the secret bit to match cipher kNone
  for (std::size_t i = 0; i < 16; ++i)
    forged[core::FbsHeaderView::kFixedSize + i] = 0;

  const auto outcome = unprotect(receiver, a.principal, forged);
  ASSERT_TRUE(std::holds_alternative<core::ReceiveError>(outcome));
  EXPECT_EQ(std::get<core::ReceiveError>(outcome),
            core::ReceiveError::kMalformed);
  EXPECT_EQ(receiver.receive_stats().rejected_malformed, 1u);

  // The genuine wire still authenticates.
  EXPECT_TRUE(std::holds_alternative<ReceivedDatagram>(
      unprotect(receiver, a.principal, *wire)));
}

// Found by the engine fuzz target (corpus: engine/
// reject-cipher-nibble-rewrite.hex): on a non-secret datagram the cipher
// nibble of the suite byte drove no computation at all -- not the MAC, not
// a decrypt -- so an on-path attacker could rewrite it and the receiver
// accepted a wire the sender never emitted. The MAC now covers the flags
// and suite bytes, so any suite rewrite dies as a MAC mismatch.
TEST(FuzzRegression, EngineRejectsCipherNibbleRewriteOnPlaintextDatagram) {
  testing::TestWorld world(12);
  auto& a = world.add_node("a", "10.0.0.1");
  auto& b = world.add_node("b", "10.0.0.2");
  core::FbsEndpoint sender(a.principal, core::FbsConfig{}, *a.keys,
                           world.clock, world.rng);
  core::FbsEndpoint receiver(b.principal, core::FbsConfig{}, *b.keys,
                             world.clock, world.rng);

  core::Datagram d;
  d.source = a.principal;
  d.destination = b.principal;
  d.attrs.protocol = 17;
  d.body = util::to_bytes("plaintext but authentic");
  const auto wire = protect(sender, d, false);
  ASSERT_TRUE(wire.has_value());

  util::Bytes tampered = *wire;
  tampered[1] ^= 0x05;  // cipher DES-CBC -> DES-OFB; unused when !secret

  const auto outcome = unprotect(receiver, a.principal, tampered);
  ASSERT_TRUE(std::holds_alternative<core::ReceiveError>(outcome));
  EXPECT_EQ(std::get<core::ReceiveError>(outcome),
            core::ReceiveError::kBadMac);

  // The genuine wire still authenticates.
  EXPECT_TRUE(std::holds_alternative<ReceivedDatagram>(
      unprotect(receiver, a.principal, *wire)));
}

}  // namespace
}  // namespace fbs
