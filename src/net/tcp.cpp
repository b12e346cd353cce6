#include "net/tcp.hpp"

#include <algorithm>

namespace fbs::net {

namespace {

/// Wrap-safe sequence comparisons (RFC 793 arithmetic).
bool seq_lt(std::uint32_t a, std::uint32_t b) {
  return static_cast<std::int32_t>(a - b) < 0;
}
bool seq_le(std::uint32_t a, std::uint32_t b) {
  return static_cast<std::int32_t>(a - b) <= 0;
}

}  // namespace

TcpConnection::TcpConnection(TcpService& service, Ipv4Address peer,
                             std::uint16_t local_port, std::uint16_t peer_port,
                             std::uint32_t initial_seq)
    : service_(service),
      peer_(peer),
      local_port_(local_port),
      peer_port_(peer_port),
      snd_una_(initial_seq),
      snd_next_(initial_seq) {
  // The tcp_output fix: the segment budget honors IP + security-hook
  // overhead so DF segments never need fragmenting.
  mss_ = service_.stack_.effective_payload_size() - TcpHeader::kSize;
}

void TcpConnection::start_connect() {
  state_ = State::kSynSent;
  emit_segment({}, /*syn=*/true, /*fin=*/false, /*force_ack=*/false);
  snd_next_ = snd_una_ + 1;  // SYN consumes one sequence number
  arm_retransmit_timer();
}

void TcpConnection::start_accept(std::uint32_t peer_isn) {
  state_ = State::kSynReceived;
  rcv_next_ = peer_isn + 1;
  emit_segment({}, /*syn=*/true, /*fin=*/false, /*force_ack=*/true);
  snd_next_ = snd_una_ + 1;
  arm_retransmit_timer();
}

bool TcpConnection::send(util::BytesView data) {
  if (state_ == State::kClosed || state_ == State::kFinWait || fin_pending_)
    return false;
  send_buffer_.insert(send_buffer_.end(), data.begin(), data.end());
  if (state_ == State::kEstablished || state_ == State::kCloseWait)
    pump_output();
  return true;
}

void TcpConnection::close() {
  if (state_ == State::kClosed || fin_pending_) return;
  fin_pending_ = true;
  if (state_ == State::kEstablished || state_ == State::kCloseWait)
    pump_output();
}

void TcpConnection::abort() {
  if (state_ == State::kClosed) return;
  auto self = shared_from_this();  // keep alive across remove()
  become_closed();
}

void TcpConnection::become_closed() {
  state_ = State::kClosed;
  ++timer_epoch_;  // cancel outstanding timers
  send_buffer_.clear();
  in_flight_.clear();
  reorder_.clear();
  ClosedFn closed = std::move(closed_);
  release_callbacks();
  if (closed) closed();
  service_.remove(*this);
}

void TcpConnection::release_callbacks() {
  closed_ = nullptr;
  accept_ = nullptr;
  // A receive callback that closes its own connection is still running:
  // deliver() releases it when it returns.
  if (!delivering_) receive_ = nullptr;
}

void TcpConnection::deliver(util::BytesView data) {
  if (!receive_) return;
  delivering_ = true;
  receive_(data);
  delivering_ = false;
  if (state_ == State::kClosed) receive_ = nullptr;
}

void TcpConnection::emit_segment(util::BytesView payload, bool syn, bool fin,
                                 bool force_ack) {
  TcpHeader header;
  header.source_port = local_port_;
  header.destination_port = peer_port_;
  header.syn = syn;
  header.fin = fin;
  // The SYN that opens an active connection is the only un-ACKed segment.
  header.ack_flag = force_ack || !(syn && state_ == State::kSynSent);
  header.ack = header.ack_flag ? rcv_next_ : 0;
  header.seq = syn ? snd_una_ : (fin ? fin_seq_ : snd_next_);
  service_.send_segment(peer_, header, payload);
  ++counters_.segments_sent;
  counters_.bytes_sent += payload.size();
}

void TcpConnection::pump_output() {
  // Segment and transmit what the window allows.
  while (in_flight_.size() < TcpService::kWindowSegments &&
         !send_buffer_.empty()) {
    const std::size_t n = std::min(mss_, send_buffer_.size());
    util::Bytes payload(send_buffer_.begin(),
                        send_buffer_.begin() + static_cast<std::ptrdiff_t>(n));
    send_buffer_.erase(send_buffer_.begin(),
                       send_buffer_.begin() + static_cast<std::ptrdiff_t>(n));
    TcpHeader header;
    header.source_port = local_port_;
    header.destination_port = peer_port_;
    header.ack_flag = true;
    header.ack = rcv_next_;
    header.seq = snd_next_;
    service_.send_segment(peer_, header, payload);
    ++counters_.segments_sent;
    counters_.bytes_sent += payload.size();
    in_flight_[snd_next_] = std::move(payload);
    snd_next_ += static_cast<std::uint32_t>(n);
  }
  if (fin_pending_ && !fin_sent_ && send_buffer_.empty() &&
      in_flight_.size() < TcpService::kWindowSegments) {
    fin_seq_ = snd_next_;
    fin_sent_ = true;
    snd_next_ += 1;  // FIN consumes a sequence number
    emit_segment({}, false, /*fin=*/true, true);
    if (state_ == State::kEstablished) state_ = State::kFinWait;
  }
  if (!in_flight_.empty() || (fin_sent_ && seq_lt(snd_una_, snd_next_)))
    arm_retransmit_timer();
}

void TcpConnection::arm_retransmit_timer() {
  const std::uint64_t epoch = ++timer_epoch_;
  const util::TimeUs rto = TcpService::kRto << std::min(backoff_, 6);
  std::weak_ptr<TcpConnection> weak = weak_from_this();
  service_.network_.call_later(rto, [weak, epoch] {
    if (auto self = weak.lock()) self->on_retransmit_timer(epoch);
  });
}

void TcpConnection::on_retransmit_timer(std::uint64_t epoch) {
  if (epoch != timer_epoch_ || state_ == State::kClosed) return;
  const bool outstanding = !in_flight_.empty() ||
                           (fin_sent_ && seq_lt(snd_una_, snd_next_)) ||
                           state_ == State::kSynSent ||
                           state_ == State::kSynReceived;
  if (!outstanding) return;

  if (++backoff_ > TcpService::kMaxRetries) {
    abort();
    return;
  }
  ++counters_.retransmissions;
  if (state_ == State::kSynSent) {
    emit_segment({}, true, false, false);
  } else if (state_ == State::kSynReceived) {
    emit_segment({}, true, false, true);
  } else if (!in_flight_.empty()) {
    // Go-back to the oldest unacknowledged segment.
    const auto& [seq, payload] = *in_flight_.begin();
    TcpHeader header;
    header.source_port = local_port_;
    header.destination_port = peer_port_;
    header.ack_flag = true;
    header.ack = rcv_next_;
    header.seq = seq;
    service_.send_segment(peer_, header, payload);
    ++counters_.segments_sent;
  } else {
    emit_segment({}, false, true, true);  // retransmit FIN
  }
  arm_retransmit_timer();
}

void TcpConnection::deliver_in_order() {
  auto it = reorder_.begin();
  while (it != reorder_.end() && it->first == rcv_next_) {
    rcv_next_ += static_cast<std::uint32_t>(it->second.size());
    counters_.bytes_delivered += it->second.size();
    deliver(it->second);
    it = reorder_.erase(it);
    it = reorder_.begin();
  }
}

void TcpConnection::on_segment(const TcpHeader& header, util::Bytes payload) {
  ++counters_.segments_received;
  auto self = shared_from_this();  // survive remove() inside

  if (header.rst) {
    become_closed();
    return;
  }

  // Handshake transitions.
  if (state_ == State::kSynSent) {
    if (header.syn && header.ack_flag && header.ack == snd_next_) {
      rcv_next_ = header.seq + 1;
      snd_una_ = header.ack;
      state_ = State::kEstablished;
      backoff_ = 0;
      ++timer_epoch_;
      emit_segment({}, false, false, true);  // complete the handshake
      pump_output();
    }
    return;
  }
  if (state_ == State::kSynReceived) {
    if (header.syn && !header.ack_flag) {
      emit_segment({}, true, false, true);  // peer missed our SYN|ACK
      return;
    }
    if (header.ack_flag && header.ack == snd_next_) {
      snd_una_ = header.ack;
      state_ = State::kEstablished;
      backoff_ = 0;
      ++timer_epoch_;
      if (accept_) {
        auto cb = std::move(accept_);
        accept_ = nullptr;
        cb(self);
      }
      // Fall through: the ACK may carry data.
    } else {
      return;
    }
  }

  // ACK processing.
  if (header.ack_flag && seq_lt(snd_una_, header.ack) &&
      seq_le(header.ack, snd_next_)) {
    snd_una_ = header.ack;
    backoff_ = 0;
    for (auto it = in_flight_.begin(); it != in_flight_.end();) {
      if (seq_le(it->first + static_cast<std::uint32_t>(it->second.size()),
                 snd_una_)) {
        it = in_flight_.erase(it);
      } else {
        ++it;
      }
    }
    if (!in_flight_.empty() || (fin_sent_ && seq_lt(snd_una_, snd_next_))) {
      arm_retransmit_timer();
    } else {
      ++timer_epoch_;  // everything acked: cancel the timer
    }
  }

  // Data and FIN processing.
  const std::size_t payload_size = payload.size();
  bool advanced = false;
  if (!payload.empty()) {
    if (header.seq == rcv_next_) {
      rcv_next_ += static_cast<std::uint32_t>(payload.size());
      counters_.bytes_delivered += payload.size();
      deliver(payload);
      deliver_in_order();
      advanced = true;
    } else if (seq_lt(rcv_next_, header.seq)) {
      ++counters_.out_of_order;
      reorder_.emplace(header.seq, std::move(payload));
    } else {
      ++counters_.duplicate_segments;  // retransmission of delivered data
    }
  }
  if (header.fin) {
    // The FIN occupies the sequence number following the segment's data.
    const std::uint32_t fin_seq =
        header.seq + static_cast<std::uint32_t>(payload_size);
    if (fin_seq == rcv_next_) {
      rcv_next_ += 1;
      peer_fin_received_ = true;
      if (state_ == State::kEstablished) state_ = State::kCloseWait;
      advanced = true;
    }
  }
  if (advanced || payload_size > 0 || header.fin)
    emit_segment({}, false, false, true);  // ACK what we have

  // Teardown completion: our FIN acked and peer FIN received.
  const bool our_side_done =
      !fin_sent_ ? false : !seq_lt(snd_una_, snd_next_);
  if (fin_sent_ && our_side_done && peer_fin_received_) {
    become_closed();
    return;
  }

  if (state_ == State::kEstablished || state_ == State::kCloseWait)
    pump_output();
}

TcpService::TcpService(IpStack& stack, Transport& network,
                       util::RandomSource& rng)
    : stack_(stack), network_(network), rng_(rng) {
  next_ephemeral_ = static_cast<std::uint16_t>(32768 + rng_.next_below(16384));
  stack_.register_protocol(
      IpProto::kTcp, [this](const Ipv4Header& ip, util::Bytes payload) {
        on_packet(ip, std::move(payload));
      });
}

TcpService::~TcpService() {
  for (auto& [key, conn] : connections_) conn->release_callbacks();
}

void TcpService::listen(std::uint16_t port, AcceptFn on_accept) {
  listeners_[port] = std::move(on_accept);
}

std::uint16_t TcpService::ephemeral_port() {
  if (++next_ephemeral_ < 32768) next_ephemeral_ = 32768;
  return next_ephemeral_;
}

std::shared_ptr<TcpConnection> TcpService::connect(Ipv4Address peer,
                                                   std::uint16_t peer_port) {
  const std::uint16_t local_port = ephemeral_port();
  auto conn = std::shared_ptr<TcpConnection>(new TcpConnection(
      *this, peer, local_port, peer_port, rng_.next_u32()));
  connections_[{peer.value, peer_port, local_port}] = conn;
  conn->start_connect();
  return conn;
}

void TcpService::on_packet(const Ipv4Header& ip, util::Bytes payload) {
  auto parsed = TcpHeader::parse(ip.source, ip.destination, payload);
  if (!parsed) return;
  const TcpHeader& header = parsed->header;

  const ConnKey key{ip.source.value, header.source_port,
                    header.destination_port};
  const auto it = connections_.find(key);
  if (it != connections_.end()) {
    it->second->on_segment(header, std::move(parsed->payload));
    return;
  }

  // Passive open.
  if (header.syn && !header.ack_flag) {
    const auto listener = listeners_.find(header.destination_port);
    if (listener == listeners_.end()) return;
    auto conn = std::shared_ptr<TcpConnection>(
        new TcpConnection(*this, ip.source, header.destination_port,
                          header.source_port, rng_.next_u32()));
    conn->accept_ = listener->second;
    connections_[key] = conn;
    conn->start_accept(header.seq);
  }
}

void TcpService::send_segment(Ipv4Address peer, const TcpHeader& header,
                              util::BytesView payload) {
  const util::Bytes wire =
      header.serialize(stack_.address(), peer, payload);
  // DF always set: segments are sized to never need fragmentation (the
  // tcp_output contract the paper had to patch).
  stack_.output(peer, IpProto::kTcp, wire, /*dont_fragment=*/true);
}

void TcpService::remove(TcpConnection& conn) {
  connections_.erase(
      ConnKey{conn.peer_.value, conn.peer_port_, conn.local_port_});
}

}  // namespace fbs::net
