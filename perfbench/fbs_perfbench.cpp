// fbs_perfbench: the datagram-path benchmark -- one workload, one seed, one run.
//
// Two FBS hosts -- sender A and receiver B, DES-CBC + keyed MD5, Oakley
// group 1 zero-message keying -- exchange UDP datagrams through the whole
// stack (UdpService -> IpStack -> FbsIpMapping -> Transport and back) in a
// closed loop: A sends a burst, B's side is pumped until every datagram of
// the burst has reached B's UDP handler, then the next burst starts. Every
// delivered payload is checked byte for byte against what was sent.
//
//   fbs_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                 [--spans FILE]
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. --trace 0 reports the end-to-end
// metrics of an untraced run; --trace 1 turns on the engine's stage tracer,
// times its own calls into the stack, and reports the per-layer
// budget instead (plus, with --spans, writes the spans of the first rounds
// as JSON lines). README.md describes the workloads and every metric.
#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "cert/certificate.hpp"
#include "cert/directory.hpp"
#include "crypto/dh.hpp"
#include "fbs/ip_map.hpp"
#include "net/simnet.hpp"
#include "net/udp.hpp"
#include "net/udp_transport.hpp"
#include "obs/metrics.hpp"
#include "trace/internet.hpp"
#include "trace/synth.hpp"
#include "util/clock.hpp"
#include "util/rng.hpp"

namespace {
// Every heap allocation in the process, for allocs_per_pkt.
std::atomic<std::uint64_t> g_heap_allocs{0};
}  // namespace

void* operator new(std::size_t n) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

using namespace fbs;

namespace {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

enum class Kind { kBulk, kInternet, kImix, kPipelineRx };

struct Spec {
  std::string_view name;
  Kind kind;
  bool real_sockets;       // UdpTransport over 127.0.0.1, else SimNetwork
  std::size_t burst;       // datagrams per closed-loop round
  std::size_t rx_workers;  // > 0: B receives through the DatagramPipeline
};

constexpr std::size_t kMaxBurst = 64;
constexpr Spec kSpecs[] = {
    {"bulk_1408", Kind::kBulk, false, 16, 0},
    {"internet_flows", Kind::kInternet, false, 16, 0},
    {"udp_imix", Kind::kImix, true, 16, 0},
    {"pipeline_rx", Kind::kPipelineRx, false, 64, 2},
};
static_assert(std::ranges::all_of(kSpecs, [](const Spec& s) {
  return s.burst <= kMaxBurst;
}));

constexpr std::uint16_t kServerPortBase = 9000;
constexpr std::uint16_t kServerPorts = 16;
constexpr std::uint32_t kMaxPayload = 1408;
constexpr std::uint32_t kMinPayload = 8;  // the sequence number
constexpr std::size_t kReplayFrames = 1024;  // pipeline_rx frame pool
constexpr std::size_t kInternetPackets = std::size_t{1} << 21;
constexpr util::TimeUs kCampusMinutes = 10;
constexpr std::size_t kSetups = 11;  // set-up samples per untraced run
constexpr double kWarmupSeconds = 0.3;
constexpr std::int64_t kWindowNs = 200'000'000;
constexpr std::uint32_t kSpanRounds = 64;

struct Message {
  std::uint16_t source_port = 0;
  std::uint16_t destination_port = 0;
  std::uint32_t size = 0;
  util::TimeUs time = 0;  // trace time (internet_flows drives the clock)
};

/// Trace five-tuples as UDP flows from A to B. The two hosts have one
/// address each, so the i-th distinct tuple of a trace becomes source port
/// 1024 + i % 64512 towards server port kServerPortBase + i / 64512 % 16:
/// distinct trace flows stay distinct (up to 1,032,192 of them) and a tuple
/// that recurs in the trace recurs here.
class TuplePorts {
 public:
  Message message(const trace::PacketRecord& r) {
    const Key key{(std::uint64_t{r.tuple.protocol} << 48) |
                      (std::uint64_t{r.tuple.source_port} << 32) |
                      r.tuple.source_address,
                  (std::uint64_t{r.tuple.destination_port} << 32) |
                      r.tuple.destination_address};
    const std::uint32_t i =
        index_.try_emplace(key, static_cast<std::uint32_t>(index_.size()))
            .first->second;
    return {static_cast<std::uint16_t>(1024 + i % 64512),
            static_cast<std::uint16_t>(kServerPortBase +
                                       i / 64512 % kServerPorts),
            std::clamp(r.size, kMinPayload, kMaxPayload), r.time};
  }

 private:
  struct Key {
    std::uint64_t hi;
    std::uint64_t lo;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const {
      return static_cast<std::size_t>(
          (k.hi * 0x9E3779B97F4A7C15ull) ^ (k.lo * 0xC2B2AE3D27D4EB4Full));
    }
  };
  std::unordered_map<Key, std::uint32_t, KeyHash> index_;
};

/// internet_flows: the first kInternetPackets datagrams of the repository's
/// internet-scale workload generator (trace/internet.hpp) at its default
/// parameters -- Zipf client and server populations, Poisson flow arrivals,
/// geometric flow lengths, Pareto sizes capped at kMaxPayload.
std::vector<Message> internet_trace(std::uint64_t seed) {
  trace::InternetWorkloadConfig config;
  config.seed = seed;
  config.duration = util::minutes(60);  // far more than kInternetPackets
  trace::InternetTraceGenerator generator(config);
  TuplePorts ports;
  std::vector<Message> out;
  out.reserve(kInternetPackets);
  trace::PacketRecord r;
  while (out.size() < kInternetPackets && generator.next(r))
    out.push_back(ports.message(r));
  return out;
}

/// pipeline_rx: the flows of kReplayFrames records sampled evenly over ten
/// minutes of the campus LAN + WWW trace (trace/synth.hpp, the Figures 9-14
/// input), so the frames carry its packet-weighted flow mix. Every frame is
/// kMaxPayload bytes: the workload measures large-frame receive.
std::vector<Message> campus_frames(std::uint64_t seed) {
  const trace::Trace t =
      trace::generate_campus_trace(seed, util::minutes(kCampusMinutes));
  TuplePorts ports;
  std::vector<Message> out;
  for (std::size_t i = 0; i < kReplayFrames && !t.empty(); ++i) {
    Message m = ports.message(t[i * t.size() / kReplayFrames]);
    m.size = kMaxPayload;
    m.time = 0;
    out.push_back(m);
  }
  return out;
}

/// The workload's datagram sequence, drawn from the seed alone. Trace
/// workloads step through a trace made once per run; internet_flows starts
/// each pass over it a flow threshold after the last, when every flow of
/// the previous pass has expired.
class Traffic {
 public:
  Traffic(Kind kind, std::uint64_t seed, const std::vector<Message>& trace,
          util::TimeUs pass_gap)
      : kind_(kind), rng_(seed), trace_(trace) {
    const std::size_t flows = kind == Kind::kImix ? 8 : 1;
    for (std::size_t i = 0; i < flows; ++i) {
      Message f;
      f.source_port =
          static_cast<std::uint16_t>(1024 + rng_.next_below(65536 - 1024));
      f.destination_port = static_cast<std::uint16_t>(
          kServerPortBase + rng_.next_below(kServerPorts));
      f.size = kMaxPayload;
      flows_.push_back(f);
    }
    if (!trace_.empty()) pass_length_ = trace_.back().time + pass_gap;
  }

  Message next() {
    switch (kind_) {
      case Kind::kBulk:
        return flows_[0];
      case Kind::kImix: {
        // Simple IMIX, 7:4:1 small:medium:large.
        Message m = flows_[rng_.next_below(flows_.size())];
        const auto r = rng_.next_below(12);
        m.size = r < 7 ? 64 : r < 11 ? 576 : kMaxPayload;
        return m;
      }
      case Kind::kInternet:
      case Kind::kPipelineRx:
        break;
    }
    Message m = trace_[cursor_];
    m.time += pass_ * pass_length_;
    if (++cursor_ == trace_.size()) {
      cursor_ = 0;
      ++pass_;
    }
    return m;
  }

 private:
  Kind kind_;
  util::SplitMix64 rng_;
  std::vector<Message> flows_;  // bulk_1408, udp_imix
  const std::vector<Message>& trace_;
  std::size_t cursor_ = 0;
  util::TimeUs pass_ = 0;
  util::TimeUs pass_length_ = 0;
};

/// Payload bytes: an 8-byte sequence number, then a seed-derived slice of a
/// random pool chosen by the sequence number, so any delivered payload can
/// be checked without keeping a copy of it.
class Content {
 public:
  explicit Content(std::uint64_t seed)
      : pool_(util::SplitMix64(seed ^ 0x9E3779B97F4A7C15ull)
                  .next_bytes(kPoolBytes + kMaxPayload)) {}

  void fill(std::uint64_t seq, std::uint32_t size, std::uint8_t* out) const {
    std::memcpy(out, &seq, 8);
    std::memcpy(out + 8, pool_.data() + offset(seq), size - 8);
  }
  bool matches(std::uint64_t seq, util::BytesView payload) const {
    return std::memcmp(payload.data() + 8, pool_.data() + offset(seq),
                       payload.size() - 8) == 0;
  }

 private:
  static constexpr std::size_t kPoolBytes = std::size_t{1} << 16;
  static std::size_t offset(std::uint64_t seq) {
    return static_cast<std::size_t>((seq * 2654435761ull) % kPoolBytes);
  }
  util::Bytes pool_;
};

/// What a run sends, made from the seed once, before any timing starts.
struct Inputs {
  Inputs(Kind kind, std::uint64_t seed) : content(seed) {
    if (kind == Kind::kInternet) trace = internet_trace(seed);
    if (kind == Kind::kPipelineRx) trace = campus_frames(seed);
  }
  Content content;
  std::vector<Message> trace;  // internet_flows, pipeline_rx
};

struct Host {
  net::Ipv4Address address;
  std::unique_ptr<net::UdpTransport> socket;  // real-socket workloads only
  std::unique_ptr<core::MasterKeyDaemon> mkd;
  std::unique_ptr<core::KeyManager> keys;
  std::unique_ptr<net::IpStack> stack;
  std::unique_ptr<core::FbsIpMapping> fbs;
  std::unique_ptr<net::UdpService> udp;
};

/// Certificate authority, directory, transport and both hosts. Key material
/// comes from a fixed seed: it is infrastructure, not workload input, and
/// a fixed key keeps set-up cost the same on every run.
class World {
 public:
  World(const Spec& spec, bool trace)
      : spec_(spec), key_rng_(1997), ca_(512, key_rng_) {
    if (!spec.real_sockets) {
      sim_ = std::make_unique<net::SimNetwork>(vclock_, 1997);
      net::LinkParams instant;
      instant.delay = 0;
      sim_->set_default_link(instant);
    }
    // strict_replay stays off (the default): pipeline_rx replays frames.
    core::IpMappingConfig config;
    config.fbs.trace_stages = trace;
    make_host(a_, "10.0.0.1", config);
    if (spec.rx_workers > 0) {
      config.fbs.shards = 4;
      config.pipeline_workers = spec.rx_workers;
    }
    make_host(b_, "10.0.0.2", config);
    if (spec.real_sockets && ok()) {
      a_.socket->add_peer(b_.address, "127.0.0.1", b_.socket->local_port());
      b_.socket->add_peer(a_.address, "127.0.0.1", a_.socket->local_port());
    }
  }

  bool ok() const {
    return !spec_.real_sockets || (a_.socket->ok() && b_.socket->ok());
  }
  Host& a() { return a_; }
  Host& b() { return b_; }
  net::SimNetwork* sim() { return sim_.get(); }

  /// Move the simulated hosts' clock forward to a datagram's trace time.
  void advance_to(util::TimeUs trace_time) {
    const util::TimeUs t = kClockStart + trace_time;
    if (t > vclock_.now()) vclock_.set(t);
  }

 private:
  static constexpr util::TimeUs kClockStart = util::minutes(1000);

  const util::Clock& clock() const {
    return spec_.real_sockets ? static_cast<const util::Clock&>(steady_)
                              : static_cast<const util::Clock&>(vclock_);
  }

  void make_host(Host& host, const char* ip,
                 const core::IpMappingConfig& config) {
    host.address = *net::Ipv4Address::parse(ip);
    const auto principal = core::Principal::from_ipv4(host.address);
    const auto& group = crypto::oakley_group1();
    const crypto::DhKeyPair dh = crypto::dh_generate(group, key_rng_);
    directory_.publish(ca_.issue(
        principal.address, group.name,
        dh.public_value.to_bytes_be(group.element_size()), 0,
        clock().now() + util::minutes(60 * 24 * 365)));
    net::Transport* transport = sim_.get();
    if (spec_.real_sockets) {
      host.socket = std::make_unique<net::UdpTransport>(
          clock(), net::UdpTransportConfig{});
      transport = host.socket.get();
    }
    host.mkd = std::make_unique<core::MasterKeyDaemon>(
        principal, dh.private_value, group, ca_, directory_, clock());
    host.keys = std::make_unique<core::KeyManager>(*host.mkd);
    host.stack =
        std::make_unique<net::IpStack>(*transport, clock(), host.address);
    host.fbs = std::make_unique<core::FbsIpMapping>(*host.stack, config,
                                                    *host.keys, clock(),
                                                    key_rng_);
    host.udp = std::make_unique<net::UdpService>(*host.stack);
  }

  const Spec& spec_;
  util::VirtualClock vclock_{kClockStart};
  util::SteadyClock steady_;
  util::SplitMix64 key_rng_;
  cert::CertificateAuthority ca_;
  cert::DirectoryService directory_;
  std::unique_ptr<net::SimNetwork> sim_;  // outlives the hosts' stacks
  Host a_;
  Host b_;
};

/// One span of the benchmark's own trace: a round, the send call of one
/// datagram, the receive pump of a round, or one datagram from send call
/// to delivery.
enum class SpanKind { kRound, kSend, kPump, kDatagram };

struct Span {
  SpanKind kind = SpanKind::kRound;
  std::uint32_t round = 0;
  std::uint32_t slot = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// The closed loop over one World: rounds, delivery checks and counters.
class ClosedLoop {
 public:
  ClosedLoop(const Spec& spec, std::uint64_t seed, const Inputs& inputs,
             bool trace)
      : spec_(spec),
        content_(inputs.content),
        trace_(trace),
        world_(spec, trace),
        traffic_(spec.kind, seed, inputs.trace,
                 core::FbsConfig{}.flow_threshold),
        payload_(kMaxPayload) {
    if (!world_.ok()) return;
    for (std::uint16_t p = 0; p < kServerPorts; ++p) {
      world_.b().udp->bind(
          static_cast<std::uint16_t>(kServerPortBase + p),
          [this](net::Ipv4Address, std::uint16_t, util::Bytes payload) {
            on_delivery(payload);
          });
    }
  }

  bool ok() const { return world_.ok(); }
  World& world() { return world_; }

  /// Bring the first flows to a keyed state; pipeline_rx also seals the
  /// frame pool it replays (captured at A's transport).
  void prime() {
    if (spec_.kind != Kind::kPipelineRx) {
      round();
      return;
    }
    net::SimNetwork& sim = *world_.sim();
    const net::Ipv4Address a = world_.a().address;
    sim.set_capture([this, a](net::Ipv4Address from, net::Ipv4Address,
                              const util::Bytes& frame, bool outbound) {
      if (outbound && from == a) frames_.push_back(frame);
    });
    sealing_ = true;
    for (std::size_t i = 0; i < kReplayFrames; i += spec_.burst) round();
    sealing_ = false;
    sim.clear_capture();
    replaying_ = frames_.size() == kReplayFrames;
    if (!replaying_) ++failed_;
  }

  /// One closed-loop round: send (or inject) a burst, pump until delivered.
  void round() {
    const std::size_t n = spec_.burst;
    burst_len_ = n;
    burst_delivered_ = 0;
    burst_bytes_ = 0;
    seen_.fill(false);
    span_round_ = rounds_ < span_round_end_;
    const std::int64_t round_start = now_ns();
    if (replaying_) {
      const std::size_t start = replay_cursor_;
      replay_cursor_ = (replay_cursor_ + n) % kReplayFrames;
      burst_base_ = start;  // a sealed frame's sequence number is its index
      for (std::size_t j = 0; j < n; ++j) {
        sizes_[j] = frame_sizes_[start + j];
        const std::int64_t t = now_ns();
        sent_ns_[j] = t;
        world_.sim()->inject(world_.b().address, frames_[start + j]);
        if (trace_) note_send(j, t);
      }
    } else {
      burst_base_ = next_seq_;
      for (std::size_t j = 0; j < n; ++j) {
        const Message m = traffic_.next();
        if (spec_.kind == Kind::kInternet) world_.advance_to(m.time);
        sizes_[j] = m.size;
        if (sealing_) frame_sizes_.push_back(m.size);
        content_.fill(next_seq_ + j, m.size, payload_.data());
        const std::int64_t t = now_ns();
        sent_ns_[j] = t;
        if (!world_.a().udp->send(world_.b().address, m.source_port,
                                  m.destination_port,
                                  util::BytesView(payload_.data(), m.size)))
          ++send_failures_;
        if (trace_) note_send(j, t);
      }
      next_seq_ += n;
    }
    const std::int64_t pump_start = now_ns();
    pump();
    const std::int64_t pump_end = now_ns();
    pump_ns_ += pump_end - pump_start;
    if (span_round_) {
      spans_.push_back({SpanKind::kPump, rounds_, 0, pump_start, pump_end});
      spans_.push_back({SpanKind::kRound, rounds_, 0, round_start, pump_end});
    }
    ++rounds_;
    attempted_ += n;
    delivered_ += burst_delivered_;
    failed_ += n - burst_delivered_;
    payload_bytes_ += burst_bytes_;
  }

  // Cumulative counters; the caller takes differences around a phase.
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t delivered() const { return delivered_; }
  std::uint64_t failed() const { return failed_ + send_failures_ + bad_; }
  std::uint64_t payload_bytes() const { return payload_bytes_; }
  std::int64_t send_ns() const { return send_ns_; }
  std::int64_t pump_ns() const { return pump_ns_; }

  /// Latency samples (send call to delivery) are kept while enabled.
  void record_latencies(std::vector<std::uint32_t>* out) { latencies_ = out; }
  /// Keep the spans of the next `rounds` rounds.
  void start_spans(std::uint32_t rounds) {
    spans_.clear();
    spans_.reserve(rounds * (2 * spec_.burst + 2));
    span_origin_ns_ = now_ns();
    span_round_base_ = rounds_;
    span_round_end_ = rounds_ + rounds;
  }
  /// One JSON object per line: span name, id, parent id, start and end in
  /// ns since start_spans().
  void write_spans(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return;
    for (const Span& s : spans_) {
      const unsigned r = s.round - span_round_base_;
      const char* name = "round";
      char id[32];
      char parent[32];
      std::snprintf(parent, sizeof parent, "\"r%u\"", r);
      switch (s.kind) {
        case SpanKind::kRound:
          std::snprintf(id, sizeof id, "\"r%u\"", r);
          std::snprintf(parent, sizeof parent, "null");
          break;
        case SpanKind::kPump:
          name = "pump";
          std::snprintf(id, sizeof id, "\"r%u.p\"", r);
          break;
        case SpanKind::kDatagram:
          name = "datagram";
          std::snprintf(id, sizeof id, "\"r%u.d%u\"", r, s.slot);
          break;
        case SpanKind::kSend:
          name = "send";
          std::snprintf(id, sizeof id, "\"r%u.s%u\"", r, s.slot);
          std::snprintf(parent, sizeof parent, "\"r%u.d%u\"", r, s.slot);
          break;
      }
      std::fprintf(f,
                   "{\"span\": \"%s\", \"id\": %s, \"parent\": %s, "
                   "\"start_ns\": %lld, \"end_ns\": %lld}\n",
                   name, id, parent,
                   static_cast<long long>(s.start_ns - span_origin_ns_),
                   static_cast<long long>(s.end_ns - span_origin_ns_));
    }
    std::fclose(f);
  }

 private:
  void note_send(std::size_t slot, std::int64_t start) {
    const std::int64_t end = now_ns();
    send_ns_ += end - start;
    if (span_round_)
      spans_.push_back({SpanKind::kSend, rounds_,
                        static_cast<std::uint32_t>(slot), start, end});
  }

  void pump() {
    if (spec_.real_sockets) {
      net::UdpTransport& socket = *world_.b().socket;
      const std::int64_t deadline = now_ns() + 1'000'000'000;
      while (burst_delivered_ < burst_len_ && now_ns() < deadline)
        socket.poll(util::TimeUs{0});
      return;
    }
    world_.sim()->run();
    world_.b().fbs->drain_pipeline_all();  // no-op without a pipeline
  }

  void on_delivery(const util::Bytes& payload) {
    const std::int64_t t = now_ns();
    if (payload.size() < kMinPayload) {
      ++bad_;
      return;
    }
    std::uint64_t seq = 0;
    std::memcpy(&seq, payload.data(), 8);
    const std::uint64_t slot = seq - burst_base_;
    if (slot >= burst_len_ || seen_[slot] || payload.size() != sizes_[slot] ||
        !content_.matches(seq, payload)) {
      ++bad_;
      return;
    }
    seen_[slot] = true;
    ++burst_delivered_;
    burst_bytes_ += payload.size();
    if (latencies_ != nullptr)
      latencies_->push_back(static_cast<std::uint32_t>(
          std::min<std::int64_t>(t - sent_ns_[slot], UINT32_MAX)));
    if (span_round_)
      spans_.push_back({SpanKind::kDatagram, rounds_,
                        static_cast<std::uint32_t>(slot), sent_ns_[slot], t});
  }

  const Spec& spec_;
  const Content& content_;
  const bool trace_;
  World world_;
  Traffic traffic_;
  util::Bytes payload_;

  // The round in progress.
  std::uint64_t burst_base_ = 0;
  std::size_t burst_len_ = 0;
  std::size_t burst_delivered_ = 0;
  std::uint64_t burst_bytes_ = 0;
  std::array<std::uint32_t, kMaxBurst> sizes_{};
  std::array<std::int64_t, kMaxBurst> sent_ns_{};
  std::array<bool, kMaxBurst> seen_{};

  // pipeline_rx: frames sealed by A during prime(), replayed into B.
  std::vector<util::Bytes> frames_;
  std::vector<std::uint32_t> frame_sizes_;  // payload size by frame index
  bool sealing_ = false;
  bool replaying_ = false;
  std::size_t replay_cursor_ = 0;

  std::uint64_t next_seq_ = 0;
  std::uint32_t rounds_ = 0;
  std::uint64_t attempted_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t send_failures_ = 0;
  std::uint64_t bad_ = 0;  // corrupt, duplicate or unexpected deliveries
  std::uint64_t payload_bytes_ = 0;
  std::int64_t send_ns_ = 0;
  std::int64_t pump_ns_ = 0;

  std::vector<std::uint32_t>* latencies_ = nullptr;
  std::vector<Span> spans_;  // reserved by start_spans(), never grows
  bool span_round_ = false;  // the current round's spans are kept
  std::int64_t span_origin_ns_ = 0;
  std::uint32_t span_round_base_ = 0;
  std::uint32_t span_round_end_ = 0;
};

/// The q-quantile of [first, last) (nearest rank below q * (n - 1));
/// reorders the range.
template <typename It>
double quantile(It first, It last, double q) {
  if (first == last) return 0;
  const auto k =
      static_cast<std::ptrdiff_t>(q * static_cast<double>(last - first - 1));
  std::nth_element(first, first + k, last);
  return static_cast<double>(first[k]);
}
template <typename T>
double quantile(std::vector<T>& v, double q) {
  return quantile(v.begin(), v.end(), q);
}

/// Per-layer totals read from the registry: engine stage time by class
/// (stage names `<prefix>.stage.<send|recv>.<op>`) and counters by suffix.
struct LayerTotals {
  double send_crypto_us = 0;
  double recv_crypto_us = 0;
  double send_key_us = 0;
  double recv_key_us = 0;
  double pipeline_busy_ns = 0;
  double send_keys = 0;
  double recv_keys = 0;
};

LayerTotals layer_totals(const obs::MetricsSnapshot& snap) {
  LayerTotals t;
  for (const auto& [name, lat] : snap.latencies) {
    const auto at = name.find(".stage.");
    if (at == std::string::npos) continue;
    const std::string_view rest = std::string_view(name).substr(at + 7);
    const auto dot = rest.find('.');
    if (dot == std::string_view::npos) continue;
    const bool send = rest.substr(0, dot) == "send";
    const std::string_view op = rest.substr(dot + 1);
    const double total_us = lat.mean_us * static_cast<double>(lat.count);
    if (op == "mac" || op == "cipher" || op == "fused" ||
        op == "batch_crypto")
      (send ? t.send_crypto_us : t.recv_crypto_us) += total_us;
    else if (op == "key_derive" || op == "key")
      (send ? t.send_key_us : t.recv_key_us) += total_us;
  }
  for (const auto& [name, value] : snap.counters) {
    const auto v = static_cast<double>(value);
    if (name.ends_with(".send.flow_keys_derived")) t.send_keys += v;
    if (name.ends_with(".recv.flow_keys_derived")) t.recv_keys += v;
    if (name.find(".pipeline.worker") != std::string::npos &&
        name.ends_with(".busy_ns"))
      t.pipeline_busy_ns += v;
  }
  return t;
}

struct Metric {
  const char* name;
  double value;
  const char* unit;
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans;
};

bool parse(int argc, char** argv, Options& o) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") o.workload = value;
    else if (key == "--seed") o.seed = std::strtoull(value, nullptr, 10);
    else if (key == "--seconds") o.seconds = std::strtod(value, nullptr);
    else if (key == "--trace") o.trace = std::string_view(value) == "1";
    else if (key == "--spans") o.spans = value;
    else return false;
  }
  return argc % 2 == 1 && !o.workload.empty() && o.seconds > 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse(argc, argv, opt)) {
    std::fprintf(stderr,
                 "usage: fbs_perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--spans FILE]\n");
    return 2;
  }
  const Spec* spec = nullptr;
  for (const Spec& s : kSpecs)
    if (s.name == opt.workload) spec = &s;
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", opt.workload.c_str());
    return 2;
  }
  // The inputs are made before any timing starts.
  const Inputs inputs(spec->kind, opt.seed);

  // Set-up: build a world and key its first flows. The first set-up is the
  // loop measured; the untraced run times more set-ups of throwaway
  // loops between measurement windows, spread over the run so that the
  // set-up figure sees the same host conditions as the windows do.
  std::vector<double> setup_s;
  std::uint64_t setup_failed = 0;
  const auto set_up = [&]() -> std::unique_ptr<ClosedLoop> {
    const std::int64_t t0 = now_ns();
    auto s = std::make_unique<ClosedLoop>(*spec, opt.seed, inputs, opt.trace);
    if (!s->ok()) return nullptr;
    s->prime();
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    return s;
  };
  const std::unique_ptr<ClosedLoop> loop = set_up();
  if (loop == nullptr) {
    std::fprintf(stderr, "could not open loopback UDP sockets\n");
    return 2;
  }

  // Warm the caches off the clock.
  const std::int64_t warm_end =
      now_ns() + static_cast<std::int64_t>(kWarmupSeconds * 1e9);
  while (now_ns() < warm_end) loop->round();

  obs::MetricsRegistry registry;
  World& world = loop->world();
  world.a().fbs->register_metrics(registry, "a");  // with B's pipeline, if any
  world.b().fbs->register_metrics(registry, "b");

  std::vector<std::uint32_t> latencies;  // every datagram measured
  latencies.reserve(std::size_t{1} << 23);
  loop->record_latencies(&latencies);
  if (opt.trace) loop->start_spans(kSpanRounds);

  const obs::MetricsSnapshot before = opt.trace ? registry.snapshot()
                                                : obs::MetricsSnapshot{};
  const std::uint64_t attempted0 = loop->attempted();
  const std::uint64_t delivered0 = loop->delivered();
  const std::int64_t send_ns0 = loop->send_ns();
  const std::int64_t pump_ns0 = loop->pump_ns();
  const std::uint64_t allocs0 = g_heap_allocs.load(std::memory_order_relaxed);

  // Measure in fixed windows: the delivered payload rate of each window and
  // the mean and p99 latency of the datagrams delivered in it. Only whole
  // windows count; per-window statistics and set-up samples are taken off
  // the clock, between windows.
  std::vector<double> window_mbps;
  std::vector<double> window_mean_us;
  std::vector<double> window_p99_us;
  std::size_t window_latencies0 = 0;  // first sample of the open window
  const std::int64_t start = now_ns();
  const auto duration = static_cast<std::int64_t>(opt.seconds * 1e9);
  const std::int64_t setup_every =
      std::max<std::int64_t>(1, duration / kWindowNs / kSetups);
  std::int64_t measured_ns = 0;
  std::int64_t setup_ns = 0;  // spent on set-up samples, not measuring
  std::int64_t window_start = start;
  std::uint64_t window_bytes0 = loop->payload_bytes();
  while (now_ns() - start - setup_ns < duration) {
    loop->round();
    const std::int64_t t = now_ns();
    if (t - window_start < kWindowNs) continue;
    const auto bits =
        static_cast<double>(loop->payload_bytes() - window_bytes0) * 8;
    window_mbps.push_back(bits / (static_cast<double>(t - window_start) / 1e3));
    measured_ns += t - window_start;
    double sum_ns = 0;
    for (std::size_t i = window_latencies0; i < latencies.size(); ++i)
      sum_ns += latencies[i];
    window_mean_us.push_back(
        sum_ns / 1e3 /
        static_cast<double>(
            std::max<std::size_t>(1, latencies.size() - window_latencies0)));
    const auto window_first =
        latencies.begin() + static_cast<std::ptrdiff_t>(window_latencies0);
    window_p99_us.push_back(
        quantile(window_first, latencies.end(), 0.99) / 1e3);
    window_latencies0 = latencies.size();
    if (!opt.trace) {
      if (static_cast<std::int64_t>(window_mbps.size()) % setup_every == 0 &&
          setup_s.size() < kSetups) {
        const std::int64_t t0 = now_ns();
        if (const auto extra = set_up())
          setup_failed += extra->failed();
        else
          ++setup_failed;
        setup_ns += now_ns() - t0;  // includes tearing the loop down
      }
    }
    window_bytes0 = loop->payload_bytes();
    window_start = now_ns();
  }

  const std::uint64_t allocs =
      g_heap_allocs.load(std::memory_order_relaxed) - allocs0;
  const std::uint64_t attempted = loop->attempted() - attempted0;
  const auto delivered =
      static_cast<double>(loop->delivered() - delivered0);
  // Failures of every phase count: set-up, warm-up and measurement.
  const std::uint64_t failed = loop->failed() + setup_failed;
  if (window_mbps.empty()) {
    std::fprintf(stderr, "--seconds is shorter than one window\n");
    return 2;
  }

  // Other tenants of a shared host slow this code by up to 40 % for a
  // fraction of a second at a time, on a share of the time that drifts
  // from minute to minute, and take worker threads off their vCPU for
  // milliseconds. Goodput and latency are therefore read from the windows
  // the host disturbed least: the upper quartile of window goodput, the
  // lower quartile of window mean and p99 latency. Set-up is the same work
  // every time; its fastest sample is the one the host disturbed least.
  // The traced run reports the p99 over every datagram as well, which a
  // stall in only some windows moves.
  latencies.resize(window_latencies0);
  std::vector<Metric> metrics;
  if (!opt.trace) {
    metrics = {
        {"goodput_mbps", quantile(window_mbps, 0.75), "Mb/s"},
        {"latency_mean_us", quantile(window_mean_us, 0.25), "us"},
        {"latency_p99_us", quantile(window_p99_us, 0.25), "us"},
        {"setup_s", quantile(setup_s, 0.0), "s"},
    };
  } else {
    const obs::MetricsSnapshot after = registry.snapshot();
    const LayerTotals t1 = layer_totals(after);
    const LayerTotals t0 = layer_totals(before);
    const double n = delivered > 0 ? delivered : 1;
    const double send_call_us =
        static_cast<double>(loop->send_ns() - send_ns0) / 1e3 / n;
    const double recv_pump_us =
        static_cast<double>(loop->pump_ns() - pump_ns0) / 1e3 / n;
    const double send_crypto_us = (t1.send_crypto_us - t0.send_crypto_us) / n;
    const double recv_crypto_us = (t1.recv_crypto_us - t0.recv_crypto_us) / n;
    const double send_key_us = (t1.send_key_us - t0.send_key_us) / n;
    const double recv_key_us = (t1.recv_key_us - t0.recv_key_us) / n;
    metrics = {
        {"send_call_us", send_call_us, "us"},
        {"recv_pump_us", recv_pump_us, "us"},
        {"send_crypto_us", send_crypto_us, "us"},
        {"recv_crypto_us", recv_crypto_us, "us"},
        {"keying_us", send_key_us + recv_key_us, "us"},
        {"send_other_us", send_call_us - send_crypto_us - send_key_us, "us"},
        {"recv_other_us", recv_pump_us - recv_crypto_us - recv_key_us, "us"},
        {"pipeline_busy_us",
         (t1.pipeline_busy_ns - t0.pipeline_busy_ns) / 1e3 / n, "us"},
        {"send_keys_per_kpkt", (t1.send_keys - t0.send_keys) * 1e3 / n,
         "1/kpkt"},
        {"recv_keys_per_kpkt", (t1.recv_keys - t0.recv_keys) * 1e3 / n,
         "1/kpkt"},
        {"allocs_per_pkt", static_cast<double>(allocs) / n, "1/pkt"},
        {"traced_goodput_mbps", quantile(window_mbps, 0.75), "Mb/s"},
        {"traced_latency_p99_us", quantile(latencies, 0.99) / 1e3, "us"},
    };
    if (!opt.spans.empty()) loop->write_spans(opt.spans);
  }

  std::fprintf(stderr,
               "%s seed %llu: %llu datagrams, %zu windows in %.3f s, %llu "
               "failed; window goodput min %.1f median %.1f max %.1f Mb/s, "
               "window p99 q1 %.1f median %.1f q3 %.1f us\n",
               opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
               static_cast<unsigned long long>(attempted), window_mbps.size(),
               static_cast<double>(measured_ns) / 1e9,
               static_cast<unsigned long long>(failed),
               quantile(window_mbps, 0.0), quantile(window_mbps, 0.5),
               quantile(window_mbps, 1.0), quantile(window_p99_us, 0.25),
               quantile(window_p99_us, 0.5), quantile(window_p99_us, 0.75));
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                i ? ", " : "", metrics[i].name, metrics[i].value,
                metrics[i].unit);
  std::printf("}}\n");
  return 0;
}
