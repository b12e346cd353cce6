// encode(parse(x)) == x property tests for every wire codec, at the value
// level: serialize a representative spread of values, parse them back, and
// require byte-identical re-encodes. The fuzz drivers enforce the same
// property over adversarial inputs; these pin it over the encoders' own
// output space, so a codec change that breaks canonicality fails here with
// a readable diff instead of an aborted fuzz run.
#include <gtest/gtest.h>

#include "cert/certificate.hpp"
#include "cert/directory.hpp"
#include "crypto/algorithms.hpp"
#include "fbs/header.hpp"
#include "net/headers.hpp"
#include "net/icmp.hpp"
#include "net/ip.hpp"

namespace fbs {
namespace {

const net::Ipv4Address kSrc = *net::Ipv4Address::parse("10.0.0.1");
const net::Ipv4Address kDst = *net::Ipv4Address::parse("10.0.0.2");

TEST(Roundtrip, FbsHeaderThroughBothSerializers) {
  for (const auto mac :
       {crypto::MacAlgorithm::kKeyedMd5, crypto::MacAlgorithm::kHmacMd5,
        crypto::MacAlgorithm::kKeyedSha1, crypto::MacAlgorithm::kHmacSha1,
        crypto::MacAlgorithm::kNull}) {
    const util::Bytes tag(crypto::mac_size(mac), 0x7E);
    core::FbsHeaderView h;
    h.suite = {mac, crypto::CipherAlgorithm::kDesCbc};
    h.sfl = 0xA1B2C3D4E5F60718;
    h.confounder = 0x01020304;
    h.timestamp_minutes = 525600;
    h.secret = mac != crypto::MacAlgorithm::kNull;
    h.mac = tag;
    util::Bytes wire;
    h.serialize_into(wire);
    wire.insert(wire.end(), {9, 8, 7});

    const auto view = core::FbsHeaderView::parse(wire);
    ASSERT_TRUE(view.has_value());
    util::Bytes re2;
    view->serialize_into(re2);
    re2.insert(re2.end(), view->body.begin(), view->body.end());
    EXPECT_EQ(re2, wire);
  }
}

TEST(Roundtrip, Ipv4WithAndWithoutOptions) {
  net::Ipv4Header h;
  h.source = kSrc;
  h.destination = kDst;
  h.protocol = 17;
  h.id = 0x1234;
  h.ttl = 3;
  h.tos = 0x10;
  const util::Bytes payload{1, 2, 3, 4, 5};
  for (const util::Bytes& options :
       {util::Bytes{}, util::Bytes{0x94, 0x04, 0x00, 0x00},
        util::Bytes(net::Ipv4Header::kMaxOptionsSize, 0x01)}) {
    h.options = options;
    const util::Bytes wire = h.serialize(payload);
    const auto parsed = net::Ipv4Header::parse(wire);
    ASSERT_TRUE(parsed.has_value()) << options.size();
    EXPECT_EQ(parsed->payload, payload);
    EXPECT_EQ(parsed->header.serialize(parsed->payload), wire);
  }
}

TEST(Roundtrip, UdpAndTcpAndIcmp) {
  net::UdpHeader u;
  u.source_port = 7;
  u.destination_port = 9;
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{5},
                              std::size_t{64}}) {
    const util::Bytes payload(n, 0x33);  // odd sizes hit the checksum tail
    const util::Bytes wire = u.serialize(kSrc, kDst, payload);
    const auto parsed = net::UdpHeader::parse(kSrc, kDst, wire);
    ASSERT_TRUE(parsed.has_value()) << n;
    EXPECT_EQ(parsed->payload, payload);
    EXPECT_EQ(parsed->header.serialize(kSrc, kDst, parsed->payload), wire);
  }

  net::TcpHeader t;
  t.source_port = 4000;
  t.destination_port = 80;
  t.seq = 0xDEADBEEF;
  t.ack = 0x01020304;
  t.syn = true;
  t.ack_flag = true;
  t.window = 1024;
  for (const std::size_t n : {std::size_t{0}, std::size_t{3}}) {
    const util::Bytes wire = t.serialize(kSrc, kDst, util::Bytes(n, 0x61));
    const auto parsed = net::TcpHeader::parse(kSrc, kDst, wire);
    ASSERT_TRUE(parsed.has_value()) << n;
    EXPECT_EQ(parsed->header.serialize(kSrc, kDst, parsed->payload), wire);
  }

  net::IcmpMessage m;
  m.type = net::IcmpMessage::kEchoRequest;
  m.identifier = 0x4642;
  m.sequence = 99;
  m.payload = {1, 2, 3, 4, 5, 6, 7};
  const util::Bytes wire = m.serialize();
  const auto parsed = net::IcmpMessage::parse(wire);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->serialize(), wire);
}

TEST(Roundtrip, CertificateAndDirectoryMessages) {
  cert::PublicValueCertificate c;
  c.subject = {10, 0, 0, 1};
  c.group_name = "oakley-1024";
  c.public_value = util::Bytes(128, 0x42);
  c.not_before = util::minutes(1);
  c.not_after = util::minutes(1000000);
  c.serial = 77;
  c.signature = util::Bytes(64, 0x5A);
  const util::Bytes wire = c.serialize();
  const auto parsed = cert::PublicValueCertificate::parse(wire);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->serialize(), wire);
  EXPECT_EQ(parsed->subject, c.subject);
  EXPECT_EQ(parsed->group_name, c.group_name);
  EXPECT_EQ(parsed->serial, c.serial);
  // The canonical round trip is what lets a re-encoded certificate keep a
  // valid signature over tbs_bytes().
  EXPECT_EQ(parsed->tbs_bytes(), c.tbs_bytes());

  cert::DirectoryRequest req;
  req.subject = {10, 0, 0, 1};
  const util::Bytes req_wire = req.serialize();
  const auto req_back = cert::DirectoryRequest::parse(req_wire);
  ASSERT_TRUE(req_back.has_value());
  EXPECT_EQ(req_back->serialize(), req_wire);

  for (const auto status :
       {cert::FetchStatus::kOk, cert::FetchStatus::kNotFound,
        cert::FetchStatus::kUnavailable}) {
    cert::DirectoryResponse resp;
    resp.status = status;
    if (status == cert::FetchStatus::kOk) resp.cert = c;
    const util::Bytes resp_wire = resp.serialize();
    const auto back = cert::DirectoryResponse::parse(resp_wire);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->serialize(), resp_wire);
    EXPECT_EQ(back->cert.has_value(), status == cert::FetchStatus::kOk);
  }
}

TEST(Roundtrip, AlgorithmSuiteByte) {
  for (int mac = 1; mac <= 5; ++mac) {
    for (int cipher = 0; cipher <= 4; ++cipher) {
      const crypto::AlgorithmSuite suite{
          static_cast<crypto::MacAlgorithm>(mac),
          static_cast<crypto::CipherAlgorithm>(cipher)};
      const auto back = crypto::decode_suite(crypto::encode_suite(suite));
      ASSERT_TRUE(back.has_value());
      EXPECT_TRUE(*back == suite);
    }
  }
}

}  // namespace
}  // namespace fbs
