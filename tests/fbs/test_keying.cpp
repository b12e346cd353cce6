#include "fbs/keying.hpp"

#include <gtest/gtest.h>

#include "crypto/md5.hpp"
#include "support/world.hpp"

namespace fbs::core {
namespace {

using testing::TestWorld;

class KeyingTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    world_ = new TestWorld(101);
    world_->add_node("alice", "10.0.0.1");
    world_->add_node("bob", "10.0.0.2");
    world_->add_node("carol", "10.0.0.3");
  }
  static void TearDownTestSuite() {
    delete world_;
    world_ = nullptr;
  }
  static TestWorld* world_;
};

TestWorld* KeyingTest::world_ = nullptr;

TEST_F(KeyingTest, PairMasterKeysAgree) {
  auto& alice = (*world_)["alice"];
  auto& bob = (*world_)["bob"];
  const auto k_ab = alice.keys->master_key(bob.principal);
  const auto k_ba = bob.keys->master_key(alice.principal);
  ASSERT_TRUE(k_ab.has_value());
  ASSERT_TRUE(k_ba.has_value());
  EXPECT_EQ(*k_ab, *k_ba);  // zero-message keying
}

TEST_F(KeyingTest, DistinctPairsDistinctMasters) {
  auto& alice = (*world_)["alice"];
  const auto k_ab = alice.keys->master_key((*world_)["bob"].principal);
  const auto k_ac = alice.keys->master_key((*world_)["carol"].principal);
  ASSERT_TRUE(k_ab && k_ac);
  EXPECT_NE(*k_ab, *k_ac);
}

TEST_F(KeyingTest, UnknownPeerFails) {
  auto& alice = (*world_)["alice"];
  Principal stranger = Principal::from_ipv4(
      *net::Ipv4Address::parse("192.168.9.9"));
  EXPECT_FALSE(alice.keys->master_key(stranger).has_value());
}

TEST_F(KeyingTest, MkcCachesMasterKeys) {
  TestWorld w(202);
  auto& a = w.add_node("a", "10.1.0.1");
  auto& b = w.add_node("b", "10.1.0.2");
  (void)a.keys->master_key(b.principal);
  const std::uint64_t upcalls_after_first = a.keys->upcalls();
  for (int i = 0; i < 10; ++i) (void)a.keys->master_key(b.principal);
  EXPECT_EQ(a.keys->upcalls(), upcalls_after_first);  // all MKC hits
  EXPECT_GE(a.keys->mkc_stats().hits, 10u);
}

TEST_F(KeyingTest, PvcCachesCertificates) {
  TestWorld w(203);
  auto& a = w.add_node("a", "10.1.0.1");
  auto& b = w.add_node("b", "10.1.0.2");
  (void)a.mkd->upcall(b.principal);
  (void)a.mkd->upcall(b.principal);
  (void)a.mkd->upcall(b.principal);
  EXPECT_EQ(a.mkd->stats().directory_fetches, 1u);  // 1 cold fetch only
  EXPECT_GE(a.mkd->pvc_stats().hits, 2u);
}

TEST_F(KeyingTest, PinnedCertificateAvoidsFetch) {
  TestWorld w(204);
  auto& a = w.add_node("a", "10.1.0.1");
  auto& b = w.add_node("b", "10.1.0.2");
  const auto cert = w.directory.fetch(b.principal.address);
  ASSERT_TRUE(cert.has_value());
  const auto fetches_before = w.directory.fetch_count();
  a.mkd->pin_certificate(*cert);
  EXPECT_TRUE(a.mkd->upcall(b.principal).has_value());
  EXPECT_EQ(w.directory.fetch_count(), fetches_before);
}

TEST_F(KeyingTest, InvalidateForcesReupcall) {
  TestWorld w(205);
  auto& a = w.add_node("a", "10.1.0.1");
  auto& b = w.add_node("b", "10.1.0.2");
  (void)a.keys->master_key(b.principal);
  const auto before = a.keys->upcalls();
  a.keys->invalidate(b.principal);
  (void)a.keys->master_key(b.principal);
  EXPECT_EQ(a.keys->upcalls(), before + 1);
}

TEST_F(KeyingTest, ExpiredCertificateRejected) {
  TestWorld w(206);
  auto& a = w.add_node("a", "10.1.0.1");
  auto& b = w.add_node("b", "10.1.0.2");
  // Replace b's directory entry with an expired certificate.
  auto cert = *w.directory.fetch(b.principal.address);
  auto expired = w.ca.issue(cert.subject, cert.group_name, cert.public_value,
                            util::minutes(0), util::minutes(1));
  w.directory.publish(expired);
  EXPECT_FALSE(a.mkd->upcall(b.principal).has_value());
  EXPECT_GE(a.mkd->stats().verify_failures, 1u);
}

TEST_F(KeyingTest, ForgedCertificateRejected) {
  TestWorld w(207);
  auto& a = w.add_node("a", "10.1.0.1");
  auto& b = w.add_node("b", "10.1.0.2");
  auto cert = *w.directory.fetch(b.principal.address);
  cert.public_value[0] ^= 0x01;  // attacker swaps in another public value
  w.directory.publish(cert);
  EXPECT_FALSE(a.mkd->upcall(b.principal).has_value());
  EXPECT_GE(a.mkd->stats().verify_failures, 1u);
}

TEST_F(KeyingTest, StalePvcEntryReverifiedOnUse) {
  // A certificate that expires while cached must be rejected on next use
  // ("a certificate can be verified each time it is used").
  TestWorld w(208);
  auto& a = w.add_node("a", "10.1.0.1");
  auto& b = w.add_node("b", "10.1.0.2");
  auto shortlived = w.ca.issue(
      b.principal.address, "g",
      (*w.directory.fetch(b.principal.address)).public_value, w.clock.now(),
      w.clock.now() + util::minutes(5));
  w.directory.publish(shortlived);
  w.directory.revoke(b.principal.address);
  a.mkd->pin_certificate(shortlived);
  EXPECT_TRUE(a.mkd->upcall(b.principal).has_value());
  w.clock.advance(util::minutes(6));
  EXPECT_FALSE(a.mkd->upcall(b.principal).has_value());
}

TEST_F(KeyingTest, UpcallRetriesThroughShortOutage) {
  TestWorld w(301);
  auto& a = w.add_node("a", "10.1.0.1");
  auto& b = w.add_node("b", "10.1.0.2");
  // Decorrelated waits are each at least initial_backoff (50ms), so the
  // three possible waits accumulate past any 60ms outage well before the
  // attempt budget runs out -- the retry must succeed, however the draws
  // land.
  const util::TimeUs t0 = w.clock.now();
  w.directory.add_outage(t0, t0 + util::TimeUs{60'000});
  ASSERT_TRUE(a.mkd->upcall(b.principal).has_value());
  EXPECT_GE(a.mkd->stats().directory_retries, 1u);
  EXPECT_EQ(a.mkd->stats().directory_fetches,
            a.mkd->stats().directory_retries + 1);
  EXPECT_EQ(a.mkd->stats().directory_failures, 0u);
  EXPECT_EQ(a.mkd->stats().negative_cache_inserts, 0u);
  EXPECT_GE(a.mkd->stats().backoff_waited_us, 60'000u);
}

TEST_F(KeyingTest, DecorrelatedBackoffWaitsStayWithinEnvelope) {
  TestWorld w(302);
  auto& a = w.add_node("a", "10.1.0.1");
  auto& b = w.add_node("b", "10.1.0.2");
  std::vector<util::TimeUs> waits;
  a.mkd->set_backoff_waiter([&](util::TimeUs wait) {
    waits.push_back(wait);
    w.clock.advance(wait);
  });
  w.directory.add_outage(w.clock.now(), w.clock.now() + util::minutes(10));
  EXPECT_FALSE(a.mkd->upcall(b.principal).has_value());

  // wait_n in [initial, min(3 * wait_{n-1}, max_backoff)], wait_0 = initial.
  const RetryPolicy& policy = a.mkd->retry_policy();
  ASSERT_EQ(waits.size(), policy.max_attempts - 1);
  util::TimeUs prev = policy.initial_backoff;
  for (const util::TimeUs wait : waits) {
    EXPECT_GE(wait, policy.initial_backoff);
    EXPECT_LE(wait, std::min(3 * prev, policy.max_backoff));
    prev = wait;
  }
  EXPECT_EQ(a.mkd->stats().directory_failures, 1u);
}

TEST_F(KeyingTest, DaemonsSharingAPolicyDrawDistinctBackoffSchedules) {
  // The decorrelation premise: a fleet configured identically must not
  // retry in lockstep. Each daemon mixes its principal address into the
  // jitter seed, so two daemons hammering the same outage diverge.
  TestWorld w(306);
  auto& a = w.add_node("a", "10.1.0.1");
  auto& b = w.add_node("b", "10.1.0.2");
  auto& c = w.add_node("c", "10.1.0.3");
  std::vector<util::TimeUs> waits_a, waits_b;
  a.mkd->set_backoff_waiter([&](util::TimeUs wait) {
    waits_a.push_back(wait);
    w.clock.advance(wait);
  });
  b.mkd->set_backoff_waiter([&](util::TimeUs wait) {
    waits_b.push_back(wait);
    w.clock.advance(wait);
  });
  w.directory.add_outage(w.clock.now(), w.clock.now() + util::minutes(60));
  EXPECT_FALSE(a.mkd->upcall(c.principal).has_value());
  EXPECT_FALSE(b.mkd->upcall(c.principal).has_value());
  ASSERT_EQ(waits_a.size(), waits_b.size());
  EXPECT_NE(waits_a, waits_b);
}

TEST_F(KeyingTest, AuthoritativeNotFoundDoesNotRetry) {
  TestWorld w(303);
  auto& a = w.add_node("a", "10.1.0.1");
  const Principal stranger =
      Principal::from_ipv4(*net::Ipv4Address::parse("192.168.9.9"));
  EXPECT_FALSE(a.mkd->upcall(stranger).has_value());
  EXPECT_EQ(a.mkd->stats().directory_fetches, 1u);  // kNotFound: no retry
  EXPECT_EQ(a.mkd->stats().directory_retries, 0u);
  EXPECT_EQ(a.mkd->stats().negative_cache_inserts, 1u);
}

TEST_F(KeyingTest, NegativeCacheAbsorbsUpcallStorm) {
  TestWorld w(304);
  auto& a = w.add_node("a", "10.1.0.1");
  auto& b = w.add_node("b", "10.1.0.2");
  w.directory.add_outage(w.clock.now(), w.clock.now() + util::seconds(5));
  EXPECT_FALSE(a.mkd->upcall(b.principal).has_value());
  const auto fetches = a.mkd->stats().directory_fetches;
  for (int i = 0; i < 100; ++i)
    EXPECT_FALSE(a.mkd->upcall(b.principal).has_value());
  EXPECT_EQ(a.mkd->stats().directory_fetches, fetches);  // all short-circuited
  EXPECT_EQ(a.mkd->stats().negative_cache_hits, 100u);
}

TEST_F(KeyingTest, ClearSoftStateDropsNegativeCache) {
  TestWorld w(305);
  auto& a = w.add_node("a", "10.1.0.1");
  auto& b = w.add_node("b", "10.1.0.2");
  w.directory.add_outage(w.clock.now(), w.clock.now() + util::seconds(30));
  EXPECT_FALSE(a.mkd->upcall(b.principal).has_value());
  EXPECT_EQ(a.mkd->stats().negative_cache_inserts, 1u);
  const auto fetches = a.mkd->stats().directory_fetches;
  // A wipe forgets the unresolvable marking: the next upcall genuinely
  // retries against the (still down) directory instead of short-circuiting.
  a.mkd->clear_soft_state();
  EXPECT_FALSE(a.mkd->upcall(b.principal).has_value());
  EXPECT_GT(a.mkd->stats().directory_fetches, fetches);
  EXPECT_EQ(a.mkd->stats().negative_cache_hits, 0u);
}

TEST(FlowKeyDerivation, DependsOnEveryInput) {
  crypto::Md5 h;
  const util::Bytes master = util::to_bytes("master-key-material");
  const Principal S = Principal::from_ipv4(*net::Ipv4Address::parse("1.1.1.1"));
  const Principal D = Principal::from_ipv4(*net::Ipv4Address::parse("2.2.2.2"));

  const auto base = derive_flow_key(h, 42, master, S, D);
  EXPECT_EQ(base.size(), 16u);
  EXPECT_EQ(derive_flow_key(h, 42, master, S, D), base);  // deterministic
  EXPECT_NE(derive_flow_key(h, 43, master, S, D), base);  // sfl
  EXPECT_NE(derive_flow_key(h, 42, util::to_bytes("other"), S, D), base);
  EXPECT_NE(derive_flow_key(h, 42, master, D, S), base);  // direction
}

TEST(FlowKeyDerivation, FlowKeyRevealsNothingAboutSiblings) {
  // Structural check of Section 6.1: K_f = H(sfl|K|S|D) -- knowing one flow
  // key, sibling keys differ completely (one-wayness is the hash's job).
  crypto::Md5 h;
  const util::Bytes master = util::to_bytes("K_SD");
  const Principal S = Principal::from_ipv4(*net::Ipv4Address::parse("1.1.1.1"));
  const Principal D = Principal::from_ipv4(*net::Ipv4Address::parse("2.2.2.2"));
  const auto k1 = derive_flow_key(h, 1, master, S, D);
  const auto k2 = derive_flow_key(h, 2, master, S, D);
  int common = 0;
  for (std::size_t i = 0; i < k1.size(); ++i)
    if (k1[i] == k2[i]) ++common;
  EXPECT_LT(common, 4);  // essentially unrelated byte strings
}

}  // namespace
}  // namespace fbs::core
