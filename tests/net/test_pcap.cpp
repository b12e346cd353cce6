#include "net/pcap.hpp"

#include <gtest/gtest.h>

#include "net/ip.hpp"
#include "net/simnet.hpp"
#include "util/clock.hpp"

namespace fbs::net {
namespace {

const Ipv4Address kSrc = *Ipv4Address::parse("10.0.0.1");
const Ipv4Address kDst = *Ipv4Address::parse("10.0.0.2");

util::Bytes sample_frame(std::size_t payload_size) {
  Ipv4Header h;
  h.protocol = static_cast<std::uint8_t>(IpProto::kUdp);
  h.source = kSrc;
  h.destination = kDst;
  return h.serialize(util::Bytes(payload_size, 0x5A));
}

TEST(Pcap, RoundTripsRecordsThroughTheReader) {
  util::VirtualClock clock(util::seconds(10));
  util::Bytes out;
  PcapWriter writer(&out, clock);
  ASSERT_TRUE(writer.ok());

  const util::Bytes f1 = sample_frame(16);
  clock.advance(util::seconds(1) + 250);
  writer.record(f1);
  const util::Bytes f2 = sample_frame(64);
  writer.record(f2);
  EXPECT_EQ(writer.frames_written(), 2u);

  const auto cap = PcapReader::parse(out);
  ASSERT_TRUE(cap.has_value());
  EXPECT_EQ(cap->linktype, kPcapLinktypeRaw);
  ASSERT_EQ(cap->records.size(), 2u);
  EXPECT_EQ(cap->records[0].frame, f1);
  EXPECT_EQ(cap->records[1].frame, f2);
  // Timestamps convert the session clock through the FBS epoch.
  EXPECT_EQ(cap->records[0].ts_sec,
            static_cast<std::uint32_t>(util::kFbsEpochUnixSeconds + 11));
  EXPECT_EQ(cap->records[0].ts_usec, 250u);
  EXPECT_EQ(cap->records[0].orig_len, f1.size());
}

TEST(Pcap, ReaderRejectsMalformedInput) {
  util::VirtualClock clock;
  util::Bytes out;
  PcapWriter writer(&out, clock);
  writer.record(sample_frame(8));

  EXPECT_FALSE(PcapReader::parse({}).has_value());
  // Bad magic.
  util::Bytes bad = out;
  bad[0] ^= 0xFF;
  EXPECT_FALSE(PcapReader::parse(bad).has_value());
  // Truncated record body.
  util::Bytes cut = out;
  cut.resize(cut.size() - 1);
  EXPECT_FALSE(PcapReader::parse(cut).has_value());
  // incl_len inflated past the bytes present.
  util::Bytes inflated = out;
  inflated[24 + 8] = 0xFF;
  EXPECT_FALSE(PcapReader::parse(inflated).has_value());
}

TEST(Pcap, ReaderHandlesTheOtherEndianness) {
  util::VirtualClock clock(util::seconds(3));
  util::Bytes le;
  PcapWriter writer(&le, clock);
  writer.record(sample_frame(24));

  // Byte-swap every header field to fake a big-endian writer.
  util::Bytes be = le;
  auto swap32 = [&](std::size_t at) {
    std::swap(be[at], be[at + 3]);
    std::swap(be[at + 1], be[at + 2]);
  };
  auto swap16 = [&](std::size_t at) { std::swap(be[at], be[at + 1]); };
  swap32(0);
  swap16(4);
  swap16(6);
  swap32(8);
  swap32(12);
  swap32(16);
  swap32(20);
  for (std::size_t at = 24; at + 16 <= be.size();) {
    swap32(at);
    swap32(at + 4);
    swap32(at + 8);
    swap32(at + 12);
    // incl_len is now swapped in place; read it from the LE original.
    std::uint32_t incl = 0;
    for (int i = 3; i >= 0; --i) incl = (incl << 8) | le[at + 8 + i];
    at += 16 + incl;
  }

  const auto cap = PcapReader::parse(be);
  ASSERT_TRUE(cap.has_value());
  EXPECT_TRUE(cap->swapped);
  ASSERT_EQ(cap->records.size(), 1u);
  EXPECT_EQ(cap->records[0].frame, sample_frame(24));
}

TEST(Pcap, CaptureHookRecordsSimNetworkTraffic) {
  util::VirtualClock clock;
  SimNetwork net(clock, 7);
  util::Bytes out;
  PcapWriter writer(&out, clock);
  net.set_capture(writer.capture_fn());
  net.attach(kDst, [](std::span<const util::Bytes>) {});

  net.send(kSrc, kDst, sample_frame(40));
  net.send(kSrc, kDst, sample_frame(80));
  net.run();

  const auto cap = PcapReader::parse(out);
  ASSERT_TRUE(cap.has_value());
  ASSERT_EQ(cap->records.size(), 2u);
  EXPECT_EQ(cap->records[0].frame, sample_frame(40));
  EXPECT_EQ(cap->records[1].frame, sample_frame(80));
}

}  // namespace
}  // namespace fbs::net
