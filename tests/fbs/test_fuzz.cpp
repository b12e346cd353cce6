// Robustness sweeps: random and mutated inputs into every wire parser and
// into FBSReceive. Nothing may crash, and nothing not produced by a keyed
// protect() may ever be accepted.
#include <gtest/gtest.h>

#include "fbs/engine.hpp"
#include "net/headers.hpp"
#include "net/icmp.hpp"
#include "net/ip.hpp"
#include "support/protect.hpp"
#include "support/world.hpp"

namespace fbs {
namespace {

using testing::ReceivedDatagram;
using testing::protect;
using testing::unprotect;
using testing::TestWorld;

class FuzzSeed : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzSeed, RandomBytesNeverParseAsAccepted) {
  util::SplitMix64 rng(GetParam());
  TestWorld world(GetParam());
  auto& a = world.add_node("a", "10.0.0.1");
  auto& b = world.add_node("b", "10.0.0.2");
  core::FbsEndpoint receiver(b.principal, core::FbsConfig{}, *b.keys,
                             world.clock, world.rng);

  for (int i = 0; i < 200; ++i) {
    const util::Bytes junk = rng.next_bytes(rng.next_below(200));
    auto outcome = unprotect(receiver, a.principal, junk);
    // Random bytes must never authenticate (a forged MAC is a 2^-128 event).
    EXPECT_TRUE(std::holds_alternative<core::ReceiveError>(outcome));
  }
}

TEST_P(FuzzSeed, MutatedGenuineWireNeverYieldsWrongBody) {
  util::SplitMix64 rng(GetParam() ^ 0xF00D);
  TestWorld world(GetParam() + 1);
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
  d.attrs.source_port = 5;
  d.attrs.destination_port = 6;
  d.body = rng.next_bytes(64);
  const auto wire = protect(sender, d, true);
  ASSERT_TRUE(wire.has_value());

  for (int i = 0; i < 300; ++i) {
    util::Bytes mutated = *wire;
    // 1-4 random byte mutations anywhere.
    const int mutations = 1 + static_cast<int>(rng.next_below(4));
    for (int m = 0; m < mutations; ++m)
      mutated[rng.next_below(mutated.size())] ^=
          static_cast<std::uint8_t>(1 + rng.next_below(255));
    // Random truncation sometimes.
    if (rng.next_below(4) == 0)
      mutated.resize(rng.next_below(mutated.size() + 1));

    auto outcome = unprotect(receiver, a.principal, mutated);
    if (auto* got = std::get_if<ReceivedDatagram>(&outcome)) {
      // Only acceptable if the mutation round-tripped to the same bytes
      // (possible when mutations cancel); the body must never differ.
      EXPECT_EQ(got->datagram.body, d.body);
    }
  }
}

TEST_P(FuzzSeed, NetworkParsersDigestGarbage) {
  util::SplitMix64 rng(GetParam() ^ 0xBEEF);
  const auto src = *net::Ipv4Address::parse("1.2.3.4");
  const auto dst = *net::Ipv4Address::parse("5.6.7.8");
  for (int i = 0; i < 500; ++i) {
    const util::Bytes junk = rng.next_bytes(rng.next_below(100));
    // None of these may crash; results are simply optional.
    (void)net::Ipv4Header::parse(junk);
    (void)net::UdpHeader::parse(src, dst, junk);
    (void)net::TcpHeader::parse(src, dst, junk);
    (void)net::IcmpMessage::parse(junk);
    (void)core::FbsHeaderView::parse(junk);
    (void)net::peek_ports(junk);
  }
  SUCCEED();
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSeed,
                         ::testing::Values(1ull, 2ull, 3ull, 42ull, 1997ull));

}  // namespace
}  // namespace fbs
