#include "net/simnet.hpp"
#include "net/stack.hpp"

#include <gtest/gtest.h>

namespace fbs::net {
namespace {

const Ipv4Address kA = *Ipv4Address::parse("10.0.0.1");
const Ipv4Address kB = *Ipv4Address::parse("10.0.0.2");

class StackTest : public ::testing::Test {
 protected:
  util::VirtualClock clock_{util::minutes(1)};
  SimNetwork net_{clock_, 3};
  IpStack a_{net_, clock_, kA};
  IpStack b_{net_, clock_, kB};
  std::vector<util::Bytes> received_;

  void SetUp() override {
    b_.register_protocol(IpProto::kUdp,
                         [this](const Ipv4Header&, util::Bytes payload) {
                           received_.push_back(std::move(payload));
                         });
  }
};

TEST_F(StackTest, DeliversPayloadToProtocolHandler) {
  EXPECT_TRUE(a_.output(kB, IpProto::kUdp, util::to_bytes("hi")));
  net_.run();
  ASSERT_EQ(received_.size(), 1u);
  EXPECT_EQ(received_[0], util::to_bytes("hi"));
  EXPECT_EQ(b_.counters().delivered, 1u);
}

TEST_F(StackTest, FragmentsAndReassemblesLargePayloads) {
  const util::Bytes big(5000, 'z');
  EXPECT_TRUE(a_.output(kB, IpProto::kUdp, big));
  net_.run();
  ASSERT_EQ(received_.size(), 1u);
  EXPECT_EQ(received_[0], big);
  EXPECT_GT(a_.counters().fragments_out, 1u);
  EXPECT_EQ(a_.counters().packets_out, 1u);
}

TEST_F(StackTest, DfDropOversized) {
  EXPECT_FALSE(a_.output(kB, IpProto::kUdp, util::Bytes(5000, 'z'), true));
  EXPECT_EQ(a_.counters().df_drops, 1u);
  net_.run();
  EXPECT_TRUE(received_.empty());
}

TEST_F(StackTest, UnregisteredProtocolCounted) {
  EXPECT_TRUE(a_.output(kB, IpProto::kTcp, util::to_bytes("tcp-ish")));
  net_.run();
  EXPECT_EQ(b_.counters().no_protocol, 1u);
  EXPECT_TRUE(received_.empty());
}

TEST_F(StackTest, GarbageFramesCountedAsParseErrors) {
  net_.inject(kB, util::to_bytes("not an ip packet at all"));
  net_.run();
  EXPECT_EQ(b_.counters().parse_errors, 1u);
}

TEST_F(StackTest, WrongDestinationNotDelivered) {
  // A frame whose simnet address is B but IP destination is A: the stack
  // must not deliver it upward (we do not forward).
  Ipv4Header h;
  h.protocol = static_cast<std::uint8_t>(IpProto::kUdp);
  h.source = kB;
  h.destination = kA;
  net_.inject(kB, h.serialize(util::to_bytes("misrouted")));
  net_.run();
  EXPECT_EQ(b_.counters().not_for_us, 1u);
  EXPECT_TRUE(received_.empty());
}

TEST_F(StackTest, OutputHookCanTransformPayload) {
  IpStack::SecurityHooks hooks;
  hooks.admit = [](IpStack::OutputDatagram& d) {
    d.payload.insert(d.payload.begin(), 0xAB);  // prepend a pseudo header
    return true;
  };
  a_.set_security_hooks(std::move(hooks));
  a_.output(kB, IpProto::kUdp, util::to_bytes("x"));
  net_.run();
  ASSERT_EQ(received_.size(), 1u);
  EXPECT_EQ(received_[0], (util::Bytes{0xAB, 'x'}));
}

TEST_F(StackTest, OutputHookDropCounted) {
  IpStack::SecurityHooks hooks;
  hooks.admit = [](IpStack::OutputDatagram&) { return false; };
  a_.set_security_hooks(std::move(hooks));
  EXPECT_FALSE(a_.output(kB, IpProto::kUdp, util::to_bytes("x")));
  EXPECT_EQ(a_.counters().hook_drops_out, 1u);
}

TEST_F(StackTest, InputHookSeesReassembledDatagram) {
  // The input hook must run after reassembly (paper hook placement): for a
  // fragmented datagram it sees the whole payload, once.
  std::vector<std::size_t> hook_sizes;
  IpStack::SecurityHooks hooks;
  hooks.input = [&](std::span<IpStack::InputDatagram> batch) {
    for (const IpStack::InputDatagram& d : batch)
      hook_sizes.push_back(d.payload.size());
  };
  b_.set_security_hooks(std::move(hooks));
  a_.output(kB, IpProto::kUdp, util::Bytes(5000, 'q'));
  net_.run();
  ASSERT_EQ(hook_sizes.size(), 1u);
  EXPECT_EQ(hook_sizes[0], 5000u);
}

TEST_F(StackTest, InputHookDropCounted) {
  IpStack::SecurityHooks hooks;
  hooks.input = [](std::span<IpStack::InputDatagram> batch) {
    for (IpStack::InputDatagram& d : batch)
      d.outcome = IpStack::InputOutcome::kDrop;
  };
  b_.set_security_hooks(std::move(hooks));
  a_.output(kB, IpProto::kUdp, util::to_bytes("x"));
  net_.run();
  EXPECT_EQ(b_.counters().hook_drops_in, 1u);
  EXPECT_TRUE(received_.empty());
}

TEST_F(StackTest, InputHookTakesDatagramAndDeliversLater) {
  // A hook that takes a datagram (as the parallel pipeline does) owns its
  // payload: the stack counts it as deferred and dispatches nothing until
  // the hook calls deliver().
  std::vector<IpStack::InputDatagram> taken;
  IpStack::SecurityHooks hooks;
  hooks.input = [&](std::span<IpStack::InputDatagram> batch) {
    for (IpStack::InputDatagram& d : batch) {
      taken.push_back({d.header, std::move(d.payload)});
      d.outcome = IpStack::InputOutcome::kTaken;
    }
  };
  b_.set_security_hooks(std::move(hooks));
  a_.output(kB, IpProto::kUdp, util::to_bytes("later"));
  net_.run();
  EXPECT_EQ(b_.counters().deferred_in, 1u);
  EXPECT_EQ(b_.counters().hook_drops_in, 0u);
  EXPECT_EQ(b_.counters().delivered, 0u);
  EXPECT_TRUE(received_.empty());

  ASSERT_EQ(taken.size(), 1u);
  b_.deliver(taken[0].header, std::move(taken[0].payload));
  EXPECT_EQ(b_.counters().delivered, 1u);
  ASSERT_EQ(received_.size(), 1u);
  EXPECT_EQ(received_[0], util::to_bytes("later"));
}

TEST_F(StackTest, EffectivePayloadSizeAccountsForOverhead) {
  EXPECT_EQ(a_.effective_payload_size(), 1500u - Ipv4Header::kSize);
  IpStack::SecurityHooks hooks;
  hooks.header_overhead = 34;
  a_.set_security_hooks(std::move(hooks));
  EXPECT_EQ(a_.effective_payload_size(), 1500u - Ipv4Header::kSize - 34u);
}

TEST_F(StackTest, LostFragmentExpiresFromReassemblyQueue) {
  // Drop exactly the second fragment of a three-fragment datagram.
  int frame_no = 0;
  net_.set_tap([&](Ipv4Address, Ipv4Address, util::Bytes&) {
    return ++frame_no == 2 ? SimNetwork::TapVerdict::kDrop
                           : SimNetwork::TapVerdict::kPass;
  });
  EXPECT_TRUE(a_.output(kB, IpProto::kUdp, util::Bytes(4000, 'f')));
  net_.run();
  EXPECT_TRUE(received_.empty());          // incomplete, never delivered
  EXPECT_EQ(b_.reassembly_pending(), 1u);  // partial held for the timeout

  // Past the reassembly timeout the next arriving packet sweeps the
  // partial out; it is counted, not leaked, and later traffic flows.
  clock_.advance(util::seconds(31));
  net_.clear_tap();
  EXPECT_TRUE(a_.output(kB, IpProto::kUdp, util::to_bytes("later")));
  net_.run();
  EXPECT_EQ(b_.counters().reassembly_expired, 1u);
  EXPECT_EQ(b_.reassembly_pending(), 0u);
  ASSERT_EQ(received_.size(), 1u);
  EXPECT_EQ(received_[0], util::to_bytes("later"));
}

TEST_F(StackTest, ReassemblyQueueDrainsAfterLossyBurst) {
  LinkParams lossy;
  lossy.loss = 0.3;
  net_.set_default_link(lossy);
  for (int i = 0; i < 50; ++i)
    a_.output(kB, IpProto::kUdp, util::Bytes(4000, 'x'));
  net_.run();
  EXPECT_LT(received_.size(), 50u);        // some datagrams lost a fragment
  EXPECT_GT(b_.reassembly_pending(), 0u);  // their partials are queued

  net_.set_default_link(LinkParams{});
  clock_.advance(util::seconds(31));
  EXPECT_TRUE(a_.output(kB, IpProto::kUdp, util::to_bytes("sweep")));
  net_.run();
  EXPECT_EQ(b_.reassembly_pending(), 0u);  // every partial expired
  EXPECT_GT(b_.counters().reassembly_expired, 0u);
}

TEST_F(StackTest, LossyLinkDeliversSubset) {
  LinkParams lossy;
  lossy.loss = 0.4;
  net_.set_default_link(lossy);
  for (int i = 0; i < 500; ++i)
    a_.output(kB, IpProto::kUdp, util::to_bytes("d"));
  net_.run();
  EXPECT_GT(received_.size(), 100u);
  EXPECT_LT(received_.size(), 450u);
}

}  // namespace
}  // namespace fbs::net
