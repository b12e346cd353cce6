// The mapping of FBS to IP (Section 7).
//
// Installs FBSSend()/FBSReceive() as the IpStack security hooks, exactly
// where the paper patched 4.4BSD: output between route selection and
// fragmentation, input between reassembly and protocol dispatch. The FBS
// header is inserted between the IP header and the transport payload ("a
// short-cut form of IP encapsulation"); forwarding routers see nothing
// strange, and `header_overhead` feeds the tcp_output.c segment-size fix.
//
// Output uses the stack's two-phase hooks. The admit hook runs
// FbsEndpoint::admit at once (so output() still fails closed on a missing
// key, and the DF check sees the exact sealed size) and keeps the admitted
// datagram by its queue slot; the seal hook seals the queue's FBS
// datagrams with one FbsEndpoint::seal_burst_into per run of them, so up to
// four datagrams share interleaved DES-CBC chains and the 8-lane MD5.
//
// The input hook takes the datagrams of a stack receive batch together
// (up to IpStack::kMaxInputBatch per call): bypass-host and raw-IP
// datagrams pass through. Without a pipeline, every FBS datagram of the
// call is opened by one FbsEndpoint::unprotect_burst_into, so datagrams
// that arrive together are decrypted in shared bitsliced passes and MAC'd
// on the 8-lane MD5 -- the same engine call the pipeline workers make.
// With a pipeline, the FBS datagrams go to it in one submit and are marked
// taken (delivered later by drain_pipeline()) or, if refused, dropped.
//
// Raw IP (ICMP/IGMP) is out of scope as in the paper (footnote 10); only
// TCP and UDP packets are protected, others pass unmodified. Traffic
// to/from "bypass hosts" (the certificate directory) travels the secure
// flow bypass of Figure 5 and is never FBS-processed -- otherwise fetching
// a certificate would itself require a certificate.
#pragma once

#include <array>
#include <atomic>
#include <functional>
#include <memory>
#include <set>
#include <span>
#include <vector>

#include "fbs/engine.hpp"
#include "fbs/pipeline.hpp"
#include "net/stack.hpp"

namespace fbs::core {

struct IpMappingConfig {
  FbsConfig fbs;

  /// Decides per-datagram confidentiality (the `secret` flag of Figure 4,
  /// "determined by the security flow policy"). Null means encrypt all.
  std::function<bool(const FlowAttributes&)> secret_policy;

  /// Peers exempt from FBS (the secure flow bypass).
  std::set<net::Ipv4Address> bypass_hosts;

  /// Raw IP handling (footnote 10). false = the paper's implementation:
  /// non-TCP/UDP packets pass unprotected. true = "raw IP can be considered
  /// as host-level flows": ICMP/IGMP/etc. are protected under one flow per
  /// host pair.
  bool protect_raw_ip = false;

  /// Parallel receive pipeline. 0 workers (default) opens every receive
  /// inline on the stack's thread, exactly the paper's in-kernel shape.
  /// >0 makes the input hook route FBS datagrams through a
  /// DatagramPipeline instead; the owner must then call drain_pipeline()
  /// (or drain_pipeline_all()) from the stack's thread to complete
  /// delivery. Pair with fbs.shards > 1 or workers will be clamped to the
  /// shard count.
  /// The other PipelineConfig values keep their defaults.
  std::size_t pipeline_workers = 0;
  std::size_t pipeline_ingress_capacity = 1024;
};

class FbsIpMapping {
 public:
  /// Atomic: in pipeline mode rejection counting happens on worker threads
  /// while the stack thread counts bypasses and acceptances.
  struct Counters {
    std::atomic<std::uint64_t> out_protected{0};
    std::atomic<std::uint64_t> out_bypassed{0};
    std::atomic<std::uint64_t> out_raw_ip{0};   // non-TCP/UDP, passed through
    std::atomic<std::uint64_t> out_dropped{0};  // master key unavailable
    std::atomic<std::uint64_t> out_sealed{0};       // datagrams sealed
    std::atomic<std::uint64_t> out_seal_bursts{0};  // seal_burst_into calls
    std::atomic<std::uint64_t> in_accepted{0};
    std::atomic<std::uint64_t> in_bypassed{0};
    std::atomic<std::uint64_t> in_raw_ip{0};
    std::atomic<std::uint64_t> in_deferred{0};  // handed to the pipeline
    // Indexed by ReceiveError.
    std::array<std::atomic<std::uint64_t>, kReceiveErrorKinds> in_rejected{};
  };

  FbsIpMapping(net::IpStack& stack, const IpMappingConfig& config,
               KeyManager& keys, const util::Clock& clock,
               util::RandomSource& rng);
  /// Seals and sends what the stack's queue holds: only this mapping can.
  ~FbsIpMapping();

  FbsIpMapping(const FbsIpMapping&) = delete;
  FbsIpMapping& operator=(const FbsIpMapping&) = delete;

  FbsEndpoint& endpoint() { return endpoint_; }
  const Counters& counters() const { return counters_; }

  /// Engaged when config.pipeline_workers > 0.
  DatagramPipeline* pipeline() { return pipeline_.get(); }

  /// Deliver every pipeline result that is ready (no-op in sync mode).
  /// Call from the stack's thread -- results complete via IpStack::deliver,
  /// which is single-writer -- then send what the handlers sent (a
  /// delivery batch ends with a seal-queue flush). Returns the number
  /// delivered.
  std::size_t drain_pipeline();
  /// Deliver until nothing the pipeline holds remains in flight.
  void drain_pipeline_all();

  /// Publish the endpoint's metrics plus the IP-layer counters, the seal
  /// queue's among them, as pull sources under `<prefix>.` names.
  void register_metrics(obs::MetricsRegistry& registry,
                        const std::string& prefix) const;

  /// Total worst-case wire overhead per packet (for MTU budgeting):
  /// security flow header plus block-cipher padding.
  std::size_t header_overhead() const {
    return endpoint_.max_wire_overhead();
  }

 private:
  bool on_admit(net::IpStack::OutputDatagram& d);
  void on_seal(std::span<net::IpStack::OutputDatagram> queue);
  void on_input(std::span<net::IpStack::InputDatagram> batch);
  void submit_to_pipeline(std::span<net::IpStack::InputDatagram> batch);
  static FlowAttributes attributes_of(const net::Ipv4Header& header,
                                      util::BytesView payload);

  IpMappingConfig config_;
  net::IpStack& stack_;
  FbsEndpoint endpoint_;
  Counters counters_;
  std::unique_ptr<DatagramPipeline> pipeline_;  // null in sync mode

  /// The engine's scratch for both directions: the admit, seal and input
  /// hooks all run on the stack's thread, and none of them calls another.
  WorkContext ctx_;

  /// The datagram staging admit reads (its principals rewritten in place),
  /// and per queue slot the admitted datagram and its wire staging
  /// (swapped with the slot's payload once sealed), all reused, so a warm
  /// send performs no heap allocations.
  Datagram tx_datagram_;
  std::array<SealItem, net::IpStack::kSealQueue> seal_items_;
  std::array<util::Bytes, net::IpStack::kSealQueue> seal_wires_;

  /// Receive-batch staging, grown to the largest batch seen and reused:
  /// the batch's FBS datagrams (by index), their claimed sources, the
  /// burst items and the plaintext bodies. A body swaps with its wire on
  /// accept, so the old wire buffer (capacity >= any body it can carry)
  /// becomes the next batch's body staging. In pipeline mode the FBS
  /// datagrams are staged in rx_submissions_.
  std::vector<std::size_t> rx_index_;
  std::vector<Principal> rx_sources_;
  std::vector<ReceiveBurstItem> rx_items_;
  std::vector<util::Bytes> rx_bodies_;
  std::vector<DatagramPipeline::Submission> rx_submissions_;
};

}  // namespace fbs::core
