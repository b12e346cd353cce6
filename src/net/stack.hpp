// Host IP stack mirroring the three-part 4.4BSD structure the paper hooks
// into (Section 7.2):
//
//   output: [1] options/route  -> FBS output hook -> [2] fragment -> [3] tx
//   input:  [1] validate/recv  -> [2] reassemble  -> FBS input hook -> [3]
//           dispatch to the higher-layer protocol
//
// The security hooks are exactly the two-line ip_output.c / ip_input.c
// changes of the paper; `header_overhead` is the tcp_output.c fix (the
// segment-size calculation must account for the inserted FBS header or DF
// packets would need fragmenting).
//
// Input runs a batch at a time: the transport hands the stack every frame
// it has due at once. Each frame is still validated and reassembled (or
// forwarded) on its own; the reassembled datagrams are collected and handed
// to the one input hook together, up to kMaxInputBatch per call, then
// dispatched in frame order. The hook marks each datagram delivered,
// dropped, or taken (a parallel pipeline that completes it later through
// deliver()). A forwarded frame first flushes the datagrams collected
// before it, so what the stack emits keeps frame order too.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <vector>

#include "net/fragment.hpp"
#include "net/ip.hpp"
#include "net/transport.hpp"

namespace fbs::net {

class IpStack {
 public:
  using ProtocolHandler =
      std::function<void(const Ipv4Header&, util::Bytes payload)>;

  /// What becomes of a datagram once the input hook has run.
  enum class InputOutcome : std::uint8_t {
    kDeliver,  // dispatch `payload` to its protocol handler now
    kDrop,     // rejected (or refused by a full pipeline): hook_drops_in
    kTaken,    // the hook owns the payload and calls deliver() later
  };

  /// One reassembled datagram of a receive batch, as the input hook sees
  /// it: the hook rewrites `payload` in place (stripping the FBS header)
  /// and sets `outcome` to drop the datagram or to take it over.
  struct InputDatagram {
    Ipv4Header header;
    util::Bytes payload;
    InputOutcome outcome = InputOutcome::kDeliver;
  };

  /// Most datagrams the input hook sees per call. Nothing of a call
  /// is dispatched before the hook has run over all of it, so the cap
  /// bounds how long batching holds back the first datagram of a burst.
  /// Four MTU-sized datagrams already fill ~3 bitsliced passes 93% and
  /// half the MD5 lanes; on perfbench's bulk_1408, whose 99th-percentile
  /// latency is the first datagram of each 16-datagram burst, uncapped
  /// batches raised that latency ~25% and batches of 8 ~7%.
  static constexpr std::size_t kMaxInputBatch = 4;

  struct SecurityHooks {
    /// Called between output parts [1] and [2]; may grow the payload
    /// (inserting the FBS header) and must keep the header's protocol field
    /// meaningful. Return false to drop (counted).
    std::function<bool(Ipv4Header&, util::Bytes&)> output;
    /// Called between input parts [2] and [3] with the datagrams of a
    /// receive batch, in frame order and at most kMaxInputBatch at a
    /// time; strips/validates each one's FBS header or takes it over
    /// (see InputDatagram).
    std::function<void(std::span<InputDatagram>)> input;
    /// Wire bytes the output hook adds; reduces the payload budget that
    /// upper layers (tcp_output-style senders) may use per packet.
    std::size_t header_overhead = 0;
  };

  /// Relaxed-atomic counters: pipeline drains call deliver() while the sim
  /// thread keeps receiving frames, so every counter a concurrent path can
  /// touch must tolerate unsynchronized increments. 64-bit throughout --
  /// frame-conservation invariants (chaos suite) must never see a wrap.
  struct Counters {
    std::atomic<std::uint64_t> packets_out{0};
    std::atomic<std::uint64_t> fragments_out{0};
    std::atomic<std::uint64_t> df_drops{0};
    std::atomic<std::uint64_t> packets_in{0};
    std::atomic<std::uint64_t> parse_errors{0};
    std::atomic<std::uint64_t> not_for_us{0};
    std::atomic<std::uint64_t> forwarded{0};
    std::atomic<std::uint64_t> ttl_expired{0};
    std::atomic<std::uint64_t> reassembly_expired{0};
    std::atomic<std::uint64_t> hook_drops_out{0};
    std::atomic<std::uint64_t> hook_drops_in{0};
    std::atomic<std::uint64_t> no_protocol{0};
    std::atomic<std::uint64_t> delivered{0};
    std::atomic<std::uint64_t> deferred_in{0};  // taken by the input hook
  };

  IpStack(Transport& network, const util::Clock& clock, Ipv4Address address,
          std::size_t mtu = 1500);
  ~IpStack();

  IpStack(const IpStack&) = delete;
  IpStack& operator=(const IpStack&) = delete;

  Ipv4Address address() const { return address_; }
  std::size_t mtu() const { return mtu_; }
  /// Payload budget per unfragmented packet once IP and security-header
  /// overhead are paid; what a tcp_output-style sender should use with DF.
  std::size_t effective_payload_size() const;

  void register_protocol(IpProto proto, ProtocolHandler handler);
  void set_security_hooks(SecurityHooks hooks) { hooks_ = std::move(hooks); }
  const SecurityHooks& security_hooks() const { return hooks_; }

  /// Send a transport payload. Returns false if dropped before the wire
  /// (DF conflict or output-hook rejection).
  bool output(Ipv4Address destination, IpProto proto, util::BytesView payload,
              bool dont_fragment = false);

  // --- Routing and forwarding (gateway role) ---

  /// Off-link destinations matching network/prefix_len go via `next_hop`.
  /// Longest prefix wins; absent a route, delivery is direct (our segment
  /// is fully connected).
  void add_route(Ipv4Address network, int prefix_len, Ipv4Address next_hop);
  /// Drop every installed route (a routing recomputation reinstalls from
  /// scratch -- see MeshNetwork::recompute_routes).
  void clear_routes() { routes_.clear(); }
  /// Route for everything without a more specific entry.
  void set_default_route(Ipv4Address next_hop) { add_route({}, 0, next_hop); }
  /// Act as a router: packets not addressed to us are forwarded (TTL
  /// decremented; expired packets dropped).
  void enable_forwarding(bool on) { forwarding_ = on; }

  /// Inspect/steal packets about to be forwarded. Return true if consumed
  /// (e.g. a tunnel re-emitted it); false to forward normally. This is the
  /// hook a gateway-to-gateway FBS tunnel attaches to.
  using ForwardFilter =
      std::function<bool(const Ipv4Header&, const util::Bytes& payload)>;
  void set_forward_filter(ForwardFilter filter) {
    forward_filter_ = std::move(filter);
  }

  /// Transmit an already-formed IP packet (header+payload) on behalf of
  /// another host -- the forwarding transmit path (no output hooks; those
  /// are for locally originated traffic).
  bool forward_packet(Ipv4Header header, util::BytesView payload);

  /// Seam between the stack and the wire: when set, every frame this stack
  /// emits (locally originated and forwarded alike) is handed to the hook
  /// instead of Transport::send. A transit router installs its egress
  /// queue/serialization model here; the hook owns the frame and decides
  /// whether it is queued, delayed, or dropped (with its own accounting).
  using TransmitHook =
      std::function<void(Ipv4Address next_hop, util::Bytes frame)>;
  void set_transmit_hook(TransmitHook hook) {
    transmit_hook_ = std::move(hook);
  }

  const Counters& counters() const { return counters_; }
  /// Incomplete datagrams currently held by the reassembly queue (lost
  /// fragments must eventually expire these, not leak them).
  std::size_t reassembly_pending() const { return reassembler_.pending(); }

  /// Input part [3]: dispatch a (security-cleared) payload to its protocol
  /// handler. Public so an input hook that takes datagrams (the parallel
  /// pipeline) can complete their delivery. Single-writer contract:
  /// only one thread at a time may be delivering -- the pipeline funnels
  /// its results through one drain, and the sim thread and drains must not
  /// overlap (protocol handlers are not locked).
  void deliver(const Ipv4Header& header, util::Bytes payload);

 private:
  /// Transport sink: input parts [1] and [2] per frame, then the batch.
  void on_frames(std::span<const util::Bytes> frames);
  void on_frame(util::BytesView frame);
  /// Run the input hook over the collected datagrams and dispatch them.
  void flush_input();
  void transmit(Ipv4Address next_hop, util::Bytes frame);
  Ipv4Address next_hop_for(Ipv4Address destination) const;

  struct Route {
    std::uint32_t network;
    int prefix_len;
    Ipv4Address next_hop;
  };

  Transport& network_;
  Ipv4Address address_;
  std::size_t mtu_;
  Reassembler reassembler_;
  std::map<std::uint8_t, ProtocolHandler> handlers_;
  SecurityHooks hooks_;
  std::vector<Route> routes_;
  bool forwarding_ = false;
  ForwardFilter forward_filter_;
  TransmitHook transmit_hook_;
  Counters counters_;
  std::uint16_t next_id_ = 1;
  /// Datagrams collected for the input hook; kept for its capacity.
  std::vector<InputDatagram> input_batch_;
};

}  // namespace fbs::net
