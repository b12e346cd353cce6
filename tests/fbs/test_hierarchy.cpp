// Hierarchical trust end-to-end: principals certified by an organizational
// CA whose authority chains back to a root -- the "distributed
// certification hierarchy" of Section 5.2, wired into the master key
// daemon via cert::ChainVerifier.
#include <gtest/gtest.h>

#include "crypto/dh.hpp"
#include "fbs/engine.hpp"
#include "support/protect.hpp"
#include "support/world.hpp"

namespace fbs::core {
namespace {

using testing::ReceivedDatagram;
using testing::protect;
using testing::unprotect;

struct HierarchicalWorld {
  HierarchicalWorld()
      : rng(12121),
        clock(util::minutes(2000)),
        root(512, rng),
        org(512, rng),
        delegation(root.delegate(org, util::to_bytes("org-ca"), 0,
                                 clock.now() + util::minutes(100000))),
        verifier(root.public_key(), {delegation}) {}

  struct Node {
    Principal principal;
    std::unique_ptr<MasterKeyDaemon> mkd;
    std::unique_ptr<KeyManager> keys;
  };

  Node enroll(const char* ip) {
    Node n;
    n.principal = Principal::from_ipv4(*net::Ipv4Address::parse(ip));
    const auto& group = crypto::test_group();
    const crypto::DhKeyPair dh = crypto::dh_generate(group, rng);
    // Principal certificates are issued by the ORG CA, not the root.
    directory.publish(org.issue(
        n.principal.address, group.name,
        dh.public_value.to_bytes_be(group.element_size()), 0,
        clock.now() + util::minutes(100000)));
    n.mkd = std::make_unique<MasterKeyDaemon>(n.principal, dh.private_value,
                                              group, verifier, directory,
                                              clock);
    n.keys = std::make_unique<KeyManager>(*n.mkd);
    return n;
  }

  util::SplitMix64 rng;
  util::VirtualClock clock;
  cert::CertificateAuthority root;
  cert::CertificateAuthority org;
  cert::PublicValueCertificate delegation;
  cert::ChainVerifier verifier;
  cert::DirectoryService directory;
};

TEST(Hierarchy, EndToEndUnderOrgCa) {
  HierarchicalWorld world;
  auto a = world.enroll("10.0.0.1");
  auto b = world.enroll("10.0.0.2");
  FbsEndpoint sender(a.principal, FbsConfig{}, *a.keys, world.clock,
                     world.rng);
  FbsEndpoint receiver(b.principal, FbsConfig{}, *b.keys, world.clock,
                       world.rng);

  Datagram d;
  d.source = a.principal;
  d.destination = b.principal;
  d.attrs.source_port = 1;
  d.attrs.destination_port = 2;
  d.body = util::to_bytes("chained trust");
  const auto wire = protect(sender, d, true);
  ASSERT_TRUE(wire.has_value());
  auto outcome = unprotect(receiver, a.principal, *wire);
  ASSERT_TRUE(std::holds_alternative<ReceivedDatagram>(outcome));
  EXPECT_EQ(std::get<ReceivedDatagram>(outcome).datagram.body, d.body);
}

TEST(Hierarchy, RogueCaCertificateRejected) {
  HierarchicalWorld world;
  auto a = world.enroll("10.0.0.1");

  // Mallory runs her own CA (no delegation from the root) and publishes a
  // certificate for a victim address with HER public value.
  util::SplitMix64 mrng(666);
  cert::CertificateAuthority mallory_ca(512, mrng);
  const auto& group = crypto::test_group();
  const crypto::DhKeyPair mallory_dh = crypto::dh_generate(group, mrng);
  const Principal victim =
      Principal::from_ipv4(*net::Ipv4Address::parse("10.0.0.9"));
  world.directory.publish(mallory_ca.issue(
      victim.address, group.name,
      mallory_dh.public_value.to_bytes_be(group.element_size()), 0,
      world.clock.now() + util::minutes(100000)));

  // a's MKD must refuse the impostor certificate: the chain verifier only
  // accepts leaves signed by the delegated org key.
  EXPECT_FALSE(a.keys->master_key(victim).has_value());
  EXPECT_GE(a.mkd->stats().verify_failures, 1u);
}

TEST(Hierarchy, RootIssuedLeafRejectedByChainVerifier) {
  // Discipline cuts both ways: this verifier expects leaves from the org
  // CA; a leaf signed directly by the root does not match the chain.
  HierarchicalWorld world;
  auto a = world.enroll("10.0.0.1");
  const auto& group = crypto::test_group();
  util::SplitMix64 rng(7);
  const crypto::DhKeyPair dh = crypto::dh_generate(group, rng);
  const Principal direct =
      Principal::from_ipv4(*net::Ipv4Address::parse("10.0.0.8"));
  world.directory.publish(world.root.issue(
      direct.address, group.name,
      dh.public_value.to_bytes_be(group.element_size()), 0,
      world.clock.now() + util::minutes(100000)));
  EXPECT_FALSE(a.keys->master_key(direct).has_value());
}

}  // namespace
}  // namespace fbs::core
