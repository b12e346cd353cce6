#include "net/udp_transport.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

namespace fbs::net {
namespace {

// peers_ stores endpoints as (socket IPv4 << 16) | port, both host order.
std::uint64_t pack_endpoint(std::uint32_t ip_host_order, std::uint16_t port) {
  return (static_cast<std::uint64_t>(ip_host_order) << 16) | port;
}

sockaddr_in unpack_endpoint(std::uint64_t packed) {
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_addr.s_addr = htonl(static_cast<std::uint32_t>(packed >> 16));
  sa.sin_port = htons(static_cast<std::uint16_t>(packed & 0xFFFF));
  return sa;
}

// FBS-layer addresses live in the frame's IPv4 header; offsets per RFC 791.
constexpr std::size_t kIpSrcOffset = 12;
constexpr std::size_t kIpDstOffset = 16;
constexpr std::size_t kIpHeaderMin = 20;

Ipv4Address frame_addr_at(const util::Bytes& frame, std::size_t offset) {
  std::uint32_t v = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    v = (v << 8) | frame[offset + i];
  }
  return Ipv4Address{v};
}

}  // namespace

UdpTransport::UdpTransport(const util::Clock& clock, UdpTransportConfig config)
    : clock_(clock), config_(std::move(config)) {
  fd_ = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (fd_ < 0) {
    error_ = std::string("socket: ") + std::strerror(errno);
    return;
  }
  sockaddr_in bind_addr{};
  bind_addr.sin_family = AF_INET;
  bind_addr.sin_port = htons(config_.bind_port);
  if (::inet_pton(AF_INET, config_.bind_host.c_str(), &bind_addr.sin_addr) !=
      1) {
    error_ = "bad bind_host: " + config_.bind_host;
    ::close(fd_);
    fd_ = -1;
    return;
  }
  if (::bind(fd_, reinterpret_cast<sockaddr*>(&bind_addr),
             sizeof(bind_addr)) != 0) {
    error_ = std::string("bind: ") + std::strerror(errno);
    ::close(fd_);
    fd_ = -1;
    return;
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
    local_port_ = ntohs(bound.sin_port);
  }
  const int flags = ::fcntl(fd_, F_GETFL, 0);
  ::fcntl(fd_, F_SETFL, flags | O_NONBLOCK);
}

UdpTransport::~UdpTransport() {
  if (fd_ >= 0) ::close(fd_);
}

bool UdpTransport::add_peer(Ipv4Address addr, const std::string& host,
                            std::uint16_t port) {
  in_addr ip{};
  if (::inet_pton(AF_INET, host.c_str(), &ip) != 1) return false;
  peers_[addr] = pack_endpoint(ntohl(ip.s_addr), port);
  return true;
}

void UdpTransport::attach(Ipv4Address addr, ReceiveFn receive) {
  sinks_[addr] = std::move(receive);
}

void UdpTransport::detach(Ipv4Address addr) { sinks_.erase(addr); }

void UdpTransport::send(Ipv4Address from, Ipv4Address to, util::Bytes frame) {
  ++counters_.sent;
  capture(from, to, frame, /*outbound=*/true);
  const auto peer = peers_.find(to);
  if (peer == peers_.end()) {
    ++counters_.unknown_peer;
    return;
  }
  if (frame.size() > config_.mtu) {
    ++counters_.oversized;
    return;
  }
  const sockaddr_in dest = unpack_endpoint(peer->second);
  const ssize_t n =
      ::sendto(fd_, frame.data(), frame.size(), 0,
               reinterpret_cast<const sockaddr*>(&dest), sizeof(dest));
  if (n < 0) {
    // EMSGSIZE is the path MTU talking back; fold it into the same bucket
    // as the local clamp so the drop cause reads uniformly.
    ++(errno == EMSGSIZE ? counters_.oversized : counters_.send_failed);
    return;
  }
  ++counters_.tx_wire;
}

void UdpTransport::call_later(util::TimeUs delay, std::function<void()> fn) {
  timers_.push(Timer{clock_.now() + std::max<util::TimeUs>(delay, 0),
                     next_seq_++, std::move(fn)});
}

std::size_t UdpTransport::drain_socket() {
  std::size_t read = 0;
  while (read < config_.recv_queue_frames) {
    if (rx_count_ == rx_frames_.size()) rx_frames_.emplace_back();
    util::Bytes& frame = rx_frames_[rx_count_];
    frame.resize(config_.mtu + 1);  // a recycled buffer: no allocation
    sockaddr_in src{};
    socklen_t src_len = sizeof(src);
    const ssize_t n =
        ::recvfrom(fd_, frame.data(), frame.size(), 0,
                   reinterpret_cast<sockaddr*>(&src), &src_len);
    if (n < 0) break;  // EWOULDBLOCK: socket drained
    ++counters_.received;
    ++read;
    frame.resize(static_cast<std::size_t>(n));
    if (frame.size() < kIpHeaderMin) {
      ++counters_.rx_malformed;
      continue;
    }
    // Learn the peer: the frame's IPv4 source is its FBS-layer identity,
    // the datagram's source sockaddr is where to reach it, so a responder
    // needs no out-of-band peer table to answer.
    peers_.emplace(frame_addr_at(frame, kIpSrcOffset),
                   pack_endpoint(ntohl(src.sin_addr.s_addr),
                                 ntohs(src.sin_port)));
    capture(frame_addr_at(frame, kIpSrcOffset),
            frame_addr_at(frame, kIpDstOffset), frame, /*outbound=*/false);
    ++rx_count_;
  }
  return read;
}

std::size_t UdpTransport::dispatch_rx() {
  std::size_t handled = 0;
  while (rx_head_ != rx_count_) {
    // One sink call per run of frames for the same binding.
    const std::size_t first = rx_head_;
    const Ipv4Address to = frame_addr_at(rx_frames_[first], kIpDstOffset);
    while (rx_head_ != rx_count_ &&
           frame_addr_at(rx_frames_[rx_head_], kIpDstOffset) == to)
      ++rx_head_;
    const std::size_t n = rx_head_ - first;
    const auto sink = sinks_.find(to);
    if (sink == sinks_.end()) {
      counters_.no_sink += n;
      continue;
    }
    counters_.delivered += n;
    handled += n;
    sink->second(std::span<const util::Bytes>(rx_frames_).subspan(first, n));
  }
  rx_head_ = rx_count_ = 0;
  return handled;
}

std::size_t UdpTransport::fire_due_timers() {
  std::size_t fired = 0;
  while (!timers_.empty() && timers_.top().deadline <= clock_.now()) {
    // Copy out before pop: the callback may call_later and reshape the heap.
    auto fn = std::move(const_cast<Timer&>(timers_.top()).fn);
    timers_.pop();
    ++fired;
    fn();
  }
  return fired;
}

util::TimeUs UdpTransport::next_timer_delta() const {
  if (timers_.empty()) return -1;
  return std::max<util::TimeUs>(timers_.top().deadline - clock_.now(), 0);
}

std::size_t UdpTransport::poll(util::TimeUs budget) {
  std::size_t handled = 0;
  const util::TimeUs deadline = clock_.now() + budget;
  for (;;) {
    flush_holders();
    handled += fire_due_timers();
    drain_socket();
    handled += dispatch_rx();

    const util::TimeUs now = clock_.now();
    util::TimeUs wait = deadline - now;
    if (wait <= 0) break;
    const util::TimeUs timer_delta = next_timer_delta();
    if (timer_delta >= 0) wait = std::min(wait, timer_delta);

    pollfd pfd{fd_, POLLIN, 0};
    const int timeout_ms =
        static_cast<int>(std::min<util::TimeUs>((wait + 999) / 1000, 1000));
    const int rc = ::poll(&pfd, 1, timeout_ms);
    if (rc < 0 && errno != EINTR) break;
  }
  // What the last pass's timers and sinks sent does not wait for the next
  // poll.
  flush_holders();
  return handled;
}

Transport::Totals UdpTransport::totals() const {
  Totals t;
  t.sent = counters_.sent;
  t.received = counters_.received;
  t.delivered = counters_.delivered;
  t.tx_wire = counters_.tx_wire;
  t.dropped = counters_.unknown_peer + counters_.oversized +
              counters_.send_failed + counters_.rx_malformed +
              counters_.no_sink;
  t.in_flight = rx_count_ - rx_head_;
  return t;
}

void UdpTransport::register_metrics(obs::MetricsRegistry& registry,
                                    const std::string& prefix) const {
  registry.add_source([prefix, this](obs::MetricsRegistry::Emitter& emit) {
    emit.counter(prefix + ".sent", counters_.sent);
    emit.counter(prefix + ".tx_wire", counters_.tx_wire);
    emit.counter(prefix + ".received", counters_.received);
    emit.counter(prefix + ".delivered", counters_.delivered);
    emit.counter(prefix + ".unknown_peer", counters_.unknown_peer);
    emit.counter(prefix + ".oversized", counters_.oversized);
    emit.counter(prefix + ".send_failed", counters_.send_failed);
    emit.counter(prefix + ".rx_malformed", counters_.rx_malformed);
    emit.counter(prefix + ".no_sink", counters_.no_sink);
  });
  register_transport_metrics(registry, prefix);
}

}  // namespace fbs::net
