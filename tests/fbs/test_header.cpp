#include "fbs/header.hpp"

#include <gtest/gtest.h>

namespace fbs::core {
namespace {

// The MAC bytes the sample headers view.
const util::Bytes kMac16(16, 0xAB);
const util::Bytes kMac20(20, 0xCD);

FbsHeaderView sample_header() {
  FbsHeaderView h;
  h.sfl = 0xDEADBEEFCAFEBABEull;
  h.confounder = 0x12345678;
  h.timestamp_minutes = 987654;
  h.mac = kMac16;
  h.secret = true;
  return h;
}

util::Bytes serialize(const FbsHeaderView& h) {
  util::Bytes out;
  h.serialize_into(out);
  return out;
}

util::Bytes bytes(util::BytesView v) { return {v.begin(), v.end()}; }

TEST(FbsHeaderView, MatchesHandWrittenWireBytes) {
  // PROTOCOL.md's header layout written out octet by octet: flags (version
  // nibble, SECRET bit), suite byte (MAC nibble, cipher nibble), then
  // big-endian sfl, confounder and timestamp, then the MAC. The first
  // vector carries the fields of PROTOCOL.md's captured datagram.
  struct Vector {
    bool secret;
    crypto::AlgorithmSuite suite;
    util::Bytes wire;
  };
  const Vector vectors[] = {
      {true,
       {crypto::MacAlgorithm::kKeyedMd5, crypto::CipherAlgorithm::kDesCbc},
       {0x11,                                            // version 1, SECRET
        0x11,                                            // keyed MD5, DES-CBC
        0xff, 0x06, 0x59, 0x7e, 0x8f, 0x5f, 0x61, 0x63,  // sfl
        0xbd, 0x74, 0xa9, 0x40,                          // confounder
        0x00, 0xf5, 0x9c, 0xf1,                          // timestamp
        0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07,  // MAC (16 bytes)
        0x08, 0x09, 0x0a, 0x0b, 0x0c, 0x0d, 0x0e, 0x0f}},
      {false,
       {crypto::MacAlgorithm::kHmacSha1, crypto::CipherAlgorithm::kNone},
       {0x10,                                            // version 1, plain
        0x40,                                            // HMAC-SHA1, none
        0xff, 0x06, 0x59, 0x7e, 0x8f, 0x5f, 0x61, 0x63,  // sfl
        0xbd, 0x74, 0xa9, 0x40,                          // confounder
        0x00, 0xf5, 0x9c, 0xf1,                          // timestamp
        0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07,  // MAC (20 bytes)
        0x08, 0x09, 0x0a, 0x0b, 0x0c, 0x0d, 0x0e, 0x0f,  //
        0x10, 0x11, 0x12, 0x13}},
  };
  for (const Vector& v : vectors) {
    util::Bytes mac(crypto::mac_size(v.suite.mac));
    for (std::size_t i = 0; i < mac.size(); ++i)
      mac[i] = static_cast<std::uint8_t>(i);
    FbsHeaderView h;
    h.suite = v.suite;
    h.secret = v.secret;
    h.sfl = 0xff06597e8f5f6163ull;
    h.confounder = 0xbd74a940;
    h.timestamp_minutes = 0x00f59cf1;  // 16 096 497 minutes
    h.mac = mac;
    EXPECT_EQ(serialize(h), v.wire);

    util::Bytes wire = v.wire;
    wire.insert(wire.end(), {'b', 'o', 'd', 'y'});
    const auto parsed = FbsHeaderView::parse(wire);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->suite, v.suite);
    EXPECT_EQ(parsed->secret, v.secret);
    EXPECT_EQ(parsed->sfl, h.sfl);
    EXPECT_EQ(parsed->confounder, h.confounder);
    EXPECT_EQ(parsed->timestamp_minutes, h.timestamp_minutes);
    EXPECT_EQ(bytes(parsed->mac), mac);
    EXPECT_EQ(bytes(parsed->body), util::to_bytes("body"));
  }
}

TEST(FbsHeader, WireSizeMatchesPaperLayout) {
  // Section 7.2: sfl 64 bits + confounder 32 + timestamp 32 + MAC 128,
  // plus our 2 bytes of flags/algorithm-id.
  const FbsHeaderView h = sample_header();
  EXPECT_EQ(FbsHeaderView::overhead(h.suite), 2u + 8u + 4u + 4u + 16u);
  EXPECT_EQ(serialize(h).size(), FbsHeaderView::overhead(h.suite));
}

TEST(FbsHeader, SerializeParseRoundTrip) {
  const FbsHeaderView h = sample_header();
  util::Bytes wire = serialize(h);
  wire.insert(wire.end(), {'b', 'o', 'd', 'y'});
  const auto parsed = FbsHeaderView::parse(wire);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->sfl, h.sfl);
  EXPECT_EQ(parsed->confounder, h.confounder);
  EXPECT_EQ(parsed->timestamp_minutes, h.timestamp_minutes);
  EXPECT_EQ(bytes(parsed->mac), bytes(h.mac));
  EXPECT_EQ(parsed->suite, h.suite);
  EXPECT_TRUE(parsed->secret);
  EXPECT_EQ(bytes(parsed->body), util::to_bytes("body"));
}

TEST(FbsHeader, SecretFlagRoundTrip) {
  FbsHeaderView h = sample_header();
  h.secret = false;
  const util::Bytes wire = serialize(h);
  const auto parsed = FbsHeaderView::parse(wire);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_FALSE(parsed->secret);
}

TEST(FbsHeader, Sha1SuiteCarriesLongerMac) {
  FbsHeaderView h = sample_header();
  h.suite.mac = crypto::MacAlgorithm::kHmacSha1;
  h.mac = kMac20;
  const util::Bytes wire = serialize(h);
  const auto parsed = FbsHeaderView::parse(wire);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->mac.size(), 20u);
  EXPECT_EQ(bytes(parsed->mac), bytes(h.mac));
}

TEST(FbsHeader, EmptyBodyAllowed) {
  const util::Bytes wire = serialize(sample_header());
  const auto parsed = FbsHeaderView::parse(wire);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->body.empty());
}

TEST(FbsHeader, TruncatedRejected) {
  const util::Bytes wire = serialize(sample_header());
  for (std::size_t cut = 0; cut < wire.size(); ++cut) {
    const util::Bytes partial(wire.begin(),
                              wire.begin() + static_cast<std::ptrdiff_t>(cut));
    EXPECT_FALSE(FbsHeaderView::parse(partial).has_value()) << "cut " << cut;
  }
}

TEST(FbsHeader, UnknownSuiteRejected) {
  util::Bytes wire = serialize(sample_header());
  wire[1] = 0xFF;  // invalid algorithm byte
  EXPECT_FALSE(FbsHeaderView::parse(wire).has_value());
}

TEST(FbsHeader, WrongVersionRejected) {
  util::Bytes wire = serialize(sample_header());
  wire[0] = (wire[0] & 0x0F) | 0x20;  // version 2
  EXPECT_FALSE(FbsHeaderView::parse(wire).has_value());
}

TEST(FbsHeader, OverheadMatchesSerializedSize) {
  for (auto mac : {crypto::MacAlgorithm::kKeyedMd5,
                   crypto::MacAlgorithm::kHmacSha1}) {
    crypto::AlgorithmSuite suite;
    suite.mac = mac;
    const util::Bytes tag(crypto::mac_size(mac));
    FbsHeaderView h;
    h.suite = suite;
    h.mac = tag;
    EXPECT_EQ(FbsHeaderView::overhead(suite), serialize(h).size());
  }
}

}  // namespace
}  // namespace fbs::core
