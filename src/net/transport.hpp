// The datagram transport seam the paper assumes beneath the FBS engine:
// Send() a frame toward a peer address, register a frame-receive sink for a
// local binding, and close a conservation equation over every frame that
// enters the backend. Receive is batched: a sink is handed every frame the
// backend has due for its binding at once, in arrival order, so the layers
// above can open a whole batch with one burst call (a lone frame is a
// batch of one). Everything above this line -- IpStack, TcpService,
// the transit mesh, FBS endpoints and tunnels -- consumes `Transport&`;
// which wire actually moves the bytes (the discrete-event SimNetwork or a
// real UDP socket, see udp_transport.hpp) is the backend's business.
//
// A sender may hold frames back between calls (IpStack's seal queue). It
// registers as a Holder, and the backend flushes every registered holder
// before it pumps -- before SimNetwork moves time or delivers anything,
// before UdpTransport reads its socket -- so nothing held back waits on a
// pump that never comes.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "net/ip.hpp"
#include "obs/metrics.hpp"
#include "util/bytes.hpp"
#include "util/clock.hpp"

namespace fbs::net {

class Transport {
 public:
  /// A batch of frames for one binding, in arrival order. The sink borrows
  /// them for the call: it reads (or copies) what it needs, and the backend
  /// keeps the buffers, which it may reuse for the next batch.
  using ReceiveFn = std::function<void(std::span<const util::Bytes> frames)>;

  /// Observer for frames crossing the seam. `outbound` frames are captured
  /// at send() entry (like tcpdump on the sender: before any drop decision);
  /// inbound captures are backend-specific -- SimNetwork's shared wire makes
  /// them redundant, the UDP backend reports frames read off the socket.
  /// This is the hook PcapWriter attaches to.
  using CaptureFn = std::function<void(
      Ipv4Address from, Ipv4Address to, const util::Bytes& frame,
      bool outbound)>;

  /// A sender that holds frames back between calls.
  class Holder {
   public:
    /// Send everything held back.
    virtual void flush_before_pump() = 0;

   protected:
    ~Holder() = default;
  };

  virtual ~Transport() = default;

  /// `holder` has started holding frames back: flush it before the next
  /// pump. Call once per hold; the registration ends with that flush. A
  /// transport that wraps another forwards both calls to the one that
  /// pumps.
  virtual void hold(Holder& holder) { holders_.push_back(&holder); }
  /// Drop `holder`'s registration (it is going away).
  virtual void release(Holder& holder) { std::erase(holders_, &holder); }

  /// Bind a local address: frames addressed to `addr` are handed to
  /// `receive`, in batches. Rebinding an address replaces the previous
  /// sink.
  virtual void attach(Ipv4Address addr, ReceiveFn receive) = 0;
  virtual void detach(Ipv4Address addr) = 0;

  /// Transmit one frame from `from` toward `to`. The backend owns the frame
  /// from here: it is eventually delivered, put on a real wire, or counted
  /// into exactly one drop bucket -- never silently lost (see Totals).
  virtual void send(Ipv4Address from, Ipv4Address to, util::Bytes frame) = 0;

  /// Schedule a callback on the backend's clock (protocol timers: TCP
  /// retransmission, sweepers, ...). SimNetwork runs these in virtual-time
  /// event order; UdpTransport fires them from its poll() pump.
  virtual void call_later(util::TimeUs delay, std::function<void()> fn) = 0;

  /// Uniform frame accounting every backend must close. After a drain
  /// (no frames pending) the conservation equation holds:
  ///
  ///   sent + received + duplicated + injected
  ///       == delivered + tx_wire + dropped + in_flight
  ///
  /// SimNetwork keeps received == tx_wire == 0 (both endpoints live inside
  /// one process); UdpTransport keeps duplicated == injected == 0 (the real
  /// wire does its own duplicating) and counts frames that left on the
  /// socket as tx_wire since their delivery is not observable locally.
  struct Totals {
    std::uint64_t sent = 0;        // frames entering send()
    std::uint64_t received = 0;    // frames read off a real wire
    std::uint64_t duplicated = 0;  // extra copies the backend created
    std::uint64_t injected = 0;    // frames entering outside send()
    std::uint64_t delivered = 0;   // frames handed to a local sink
    std::uint64_t tx_wire = 0;     // frames put on a real wire
    std::uint64_t dropped = 0;     // sum of the backend's drop buckets
    std::uint64_t in_flight = 0;   // accepted, not yet delivered/dropped
  };
  virtual Totals totals() const = 0;

  /// Publish the backend's counters as a pull source under `<prefix>.`.
  /// Implementations emit their backend-specific buckets and must also call
  /// register_transport_metrics() so the uniform `<prefix>.transport.*`
  /// family exists for every backend (the chaos suite asserts over it).
  virtual void register_metrics(obs::MetricsRegistry& registry,
                                const std::string& prefix) const = 0;

  void set_capture(CaptureFn fn) { capture_ = std::move(fn); }
  void clear_capture() { capture_ = nullptr; }

 protected:
  /// Emit the uniform `<prefix>.transport.*` names from totals().
  /// `in_flight` is a gauge (it drains back down); the rest are counters,
  /// so the registry's monotonicity checks apply to them.
  void register_transport_metrics(obs::MetricsRegistry& registry,
                                  const std::string& prefix) const;

  void capture(Ipv4Address from, Ipv4Address to, const util::Bytes& frame,
               bool outbound) const {
    if (capture_) capture_(from, to, frame, outbound);
  }
  bool capturing() const { return static_cast<bool>(capture_); }

  /// Flush every registered holder, in registration order. Each backend
  /// calls this first in every pump.
  void flush_holders();

 private:
  CaptureFn capture_;
  std::vector<Holder*> holders_;
};

}  // namespace fbs::net
