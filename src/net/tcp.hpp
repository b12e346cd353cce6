// Minimal TCP: enough of RFC 793 to run the paper's ttcp/rcp-style bulk
// transfers over the simulated network -- three-way handshake, cumulative
// ACKs, a fixed-size sliding window, timeout retransmission with backoff,
// in-order delivery, FIN teardown.
//
// The deliberate tie-in to the paper: tcp_output() in 4.4BSD "attempts to
// calculate exactly how much data it can place in a packet without
// triggering fragmentation ... and sets the DF flag", which broke when the
// FBS header was inserted until the calculation was fixed (Section 7.2).
// This TCP does the same: every data segment is sized from
// IpStack::effective_payload_size() -- which accounts for installed
// security-hook overhead -- and sent with DF. Disable that accounting and
// transfers stall exactly the way the unpatched kernel did.
//
// Not implemented (documented simplifications): congestion control, SACK,
// urgent data, simultaneous open, window scaling, RST handling beyond
// teardown.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>

#include "net/headers.hpp"
#include "net/transport.hpp"
#include "util/rng.hpp"
#include "net/stack.hpp"

namespace fbs::net {

class TcpService;

class TcpConnection : public std::enable_shared_from_this<TcpConnection> {
 public:
  enum class State {
    kSynSent,
    kSynReceived,
    kEstablished,
    kFinWait,    // we sent FIN, awaiting its ACK (and peer FIN)
    kCloseWait,  // peer sent FIN, we still may send
    kClosed,
  };

  using ReceiveFn = std::function<void(util::BytesView data)>;
  using ClosedFn = std::function<void()>;

  /// Deliverable application data arrives here, in order.
  void on_receive(ReceiveFn fn) { receive_ = std::move(fn); }
  /// Called once when the connection fully closes (or aborts).
  void on_closed(ClosedFn fn) { closed_ = std::move(fn); }

  /// Queue bytes for transmission. Returns false once closing/closed.
  bool send(util::BytesView data);

  /// Graceful close: FIN after the send buffer drains.
  void close();
  /// Abort: drop all state immediately.
  void abort();

  State state() const { return state_; }
  std::size_t mss() const { return mss_; }

  struct Counters {
    std::uint64_t segments_sent = 0;
    std::uint64_t segments_received = 0;
    std::uint64_t bytes_sent = 0;
    std::uint64_t bytes_delivered = 0;
    std::uint64_t retransmissions = 0;
    std::uint64_t out_of_order = 0;
    std::uint64_t duplicate_segments = 0;
  };
  const Counters& counters() const { return counters_; }

 private:
  friend class TcpService;

  TcpConnection(TcpService& service, Ipv4Address peer,
                std::uint16_t local_port, std::uint16_t peer_port,
                std::uint32_t initial_seq);

  void start_connect();
  void start_accept(std::uint32_t peer_isn);
  void on_segment(const TcpHeader& header, util::Bytes payload);
  void pump_output();
  void emit_segment(util::BytesView payload, bool syn, bool fin, bool force_ack);
  void arm_retransmit_timer();
  void on_retransmit_timer(std::uint64_t epoch);
  void deliver_in_order();
  void deliver(util::BytesView data);
  void become_closed();
  /// Drop the application callbacks. They may own this connection (a
  /// receive callback capturing its shared_ptr), a cycle that would keep
  /// it alive forever; so they go when it closes or its service is
  /// destroyed.
  void release_callbacks();

  TcpService& service_;
  Ipv4Address peer_;
  std::uint16_t local_port_;
  std::uint16_t peer_port_;
  State state_ = State::kSynSent;
  std::size_t mss_ = 536;

  // Send side. snd_una_..snd_next_ is in flight; send_buffer_ holds bytes
  // not yet segmented (send_buffer_ starts at sequence snd_next_).
  std::uint32_t snd_una_ = 0;   // oldest unacknowledged sequence
  std::uint32_t snd_next_ = 0;  // next sequence to send
  std::deque<std::uint8_t> send_buffer_;
  std::map<std::uint32_t, util::Bytes> in_flight_;  // seq -> payload
  bool fin_pending_ = false;   // close() requested
  bool fin_sent_ = false;
  std::uint32_t fin_seq_ = 0;
  int backoff_ = 0;
  std::uint64_t timer_epoch_ = 0;  // invalidates stale timers
  bool timer_armed_ = false;

  // Receive side.
  std::uint32_t rcv_next_ = 0;  // next expected sequence
  std::map<std::uint32_t, util::Bytes> reorder_;  // out-of-order segments
  bool peer_fin_received_ = false;
  std::uint32_t peer_fin_seq_ = 0;

  ReceiveFn receive_;
  bool delivering_ = false;  // inside receive_: release it on return
  ClosedFn closed_;
  /// Pending accept callback for passive opens; fired on ESTABLISHED.
  std::function<void(std::shared_ptr<TcpConnection>)> accept_;
  Counters counters_;
};

class TcpService {
 public:
  using AcceptFn = std::function<void(std::shared_ptr<TcpConnection>)>;

  /// `network` supplies protocol timers (call_later).
  TcpService(IpStack& stack, Transport& network, util::RandomSource& rng);
  /// Releases the callbacks of connections still open.
  ~TcpService();

  /// Accept connections on `port`.
  void listen(std::uint16_t port, AcceptFn on_accept);

  /// Active open. The returned connection starts in kSynSent; install
  /// callbacks immediately.
  std::shared_ptr<TcpConnection> connect(Ipv4Address peer,
                                         std::uint16_t peer_port);

  /// Currently tracked connections (established or in teardown).
  std::size_t connection_count() const { return connections_.size(); }

  /// Retransmission timeout base; doubles per retry (max kMaxRetries).
  static constexpr util::TimeUs kRto = util::TimeUs{200'000};
  static constexpr int kMaxRetries = 8;
  static constexpr std::size_t kWindowSegments = 32;

 private:
  friend class TcpConnection;

  struct ConnKey {
    std::uint32_t peer_addr;
    std::uint16_t peer_port;
    std::uint16_t local_port;
    auto operator<=>(const ConnKey&) const = default;
  };

  void on_packet(const Ipv4Header& ip, util::Bytes payload);
  void send_segment(Ipv4Address peer, const TcpHeader& header,
                    util::BytesView payload);
  void remove(TcpConnection& conn);
  std::uint16_t ephemeral_port();

  IpStack& stack_;
  Transport& network_;
  util::RandomSource& rng_;
  std::map<ConnKey, std::shared_ptr<TcpConnection>> connections_;
  std::map<std::uint16_t, AcceptFn> listeners_;
  std::uint16_t next_ephemeral_ = 0;
};

}  // namespace fbs::net
