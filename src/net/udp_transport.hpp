// Real-socket Transport backend: FBS wire frames (full IPv4 packets, the
// same bytes SimNetwork carries) ride as UDP datagram payloads between OS
// processes. The paper's engine only ever asked for a Send()/Receive()
// datagram seam, so this is all it takes to move real packets: bind one
// AF_INET socket, map the FBS-layer addresses to socket endpoints, and pump.
//
// Determinism story: the backend is single-threaded and poll-driven -- no
// receive thread, no locks. Frames and timers are dispatched only from
// inside poll(), on the caller's thread, in arrival/deadline order; frames
// go to their sink in runs that share a destination (Transport's batch
// sink). The
// conservation equation SimNetwork closes holds here too (Transport::Totals):
// every frame entering send() or read off the socket ends up delivered, on
// the wire, or in exactly one counted drop bucket.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <queue>
#include <string>
#include <vector>

#include "net/transport.hpp"
#include "util/clock.hpp"

namespace fbs::net {

struct UdpTransportConfig {
  std::string bind_host = "127.0.0.1";
  std::uint16_t bind_port = 0;  // 0 = kernel-assigned ephemeral port
  /// Frames longer than this are dropped before sendto (counted in
  /// `oversized`), the same clamp EMSGSIZE would impose further down --
  /// surfacing the MTU as an explicit counted drop instead of an errno.
  std::size_t mtu = 1500;
  /// Receive queue between the socket and the sinks, and the read budget
  /// of one socket drain: each pass of poll() reads at most this many
  /// frames, then dispatches them and checks its timers, so a flood
  /// cannot starve either. What the budget leaves stays in the kernel's
  /// socket buffer for the next pass. The frame buffers are reused from
  /// drain to drain.
  std::size_t recv_queue_frames = 1024;
};

class UdpTransport final : public Transport {
 public:
  UdpTransport(const util::Clock& clock, UdpTransportConfig config = {});
  ~UdpTransport() override;

  UdpTransport(const UdpTransport&) = delete;
  UdpTransport& operator=(const UdpTransport&) = delete;

  /// False when socket/bind failed; errno text in error().
  bool ok() const { return fd_ >= 0; }
  const std::string& error() const { return error_; }
  /// The port actually bound (resolves an ephemeral request).
  std::uint16_t local_port() const { return local_port_; }

  /// Map an FBS-layer address to a real socket endpoint. `host` is a
  /// dotted-quad (no resolver -- loopback and lab addresses).
  bool add_peer(Ipv4Address addr, const std::string& host,
                std::uint16_t port);

  void attach(Ipv4Address addr, ReceiveFn receive) override;
  void detach(Ipv4Address addr) override;
  void send(Ipv4Address from, Ipv4Address to, util::Bytes frame) override;
  void call_later(util::TimeUs delay, std::function<void()> fn) override;

  /// Pump the socket and the timer heap for up to `budget` of clock time
  /// (0 = one non-blocking pass). Everything the backend does -- reads,
  /// sink dispatch, timer callbacks -- happens here, on this thread.
  /// Returns the number of events handled (frames delivered + timers
  /// fired), so callers can loop `while (work_pending()) poll(...)` or
  /// alternate two in-process transports. Not re-entrant: a sink holds a
  /// span into the receive queue, so sinks and timers must not call
  /// poll() on the same transport.
  std::size_t poll(util::TimeUs budget);

  /// True while frames sit in the receive queue or timers are pending.
  bool work_pending() const {
    return rx_head_ != rx_count_ || !timers_.empty();
  }

  struct Counters {
    std::atomic<std::uint64_t> sent{0};
    std::atomic<std::uint64_t> tx_wire{0};       // left on the socket
    std::atomic<std::uint64_t> received{0};      // read off the socket
    std::atomic<std::uint64_t> delivered{0};     // handed to a sink
    std::atomic<std::uint64_t> unknown_peer{0};  // no endpoint for `to`
    std::atomic<std::uint64_t> oversized{0};     // MTU clamp or EMSGSIZE
    std::atomic<std::uint64_t> send_failed{0};   // other sendto errno
    std::atomic<std::uint64_t> rx_malformed{0};  // shorter than an IP header
    std::atomic<std::uint64_t> no_sink{0};       // no attach() for dest
  };
  const Counters& counters() const { return counters_; }

  Totals totals() const override;
  void register_metrics(obs::MetricsRegistry& registry,
                        const std::string& prefix) const override;

 private:
  struct Timer {
    util::TimeUs deadline;
    std::uint64_t seq;
    std::function<void()> fn;
  };
  struct TimerLater {
    bool operator()(const Timer& a, const Timer& b) const {
      return a.deadline != b.deadline ? a.deadline > b.deadline
                                      : a.seq > b.seq;
    }
  };

  std::size_t drain_socket();
  std::size_t dispatch_rx();
  std::size_t fire_due_timers();
  util::TimeUs next_timer_delta() const;

  const util::Clock& clock_;
  UdpTransportConfig config_;
  int fd_ = -1;
  std::uint16_t local_port_ = 0;
  std::string error_;
  std::map<Ipv4Address, ReceiveFn> sinks_;
  std::map<Ipv4Address, std::uint64_t> peers_;  // addr -> packed sockaddr
  /// Receive queue: frames [rx_head_, rx_count_) of rx_frames_ await
  /// dispatch. Slots past rx_count_ keep their buffers for the next drain.
  std::vector<util::Bytes> rx_frames_;
  std::size_t rx_head_ = 0;
  std::size_t rx_count_ = 0;
  std::priority_queue<Timer, std::vector<Timer>, TimerLater> timers_;
  std::uint64_t next_seq_ = 0;
  Counters counters_;
};

}  // namespace fbs::net
