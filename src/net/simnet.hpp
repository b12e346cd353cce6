// Discrete-event simulated network.
//
// Stands in for the paper's dedicated 10 Mb/s Ethernet segment (Section 7.3
// setup): hosts attach with an address and a receive callback; frames are
// delivered through per-pair links with configurable delay, jitter
// (reordering), loss, and duplication -- the "standard features of datagram
// communication" Section 3 says a security protocol must not change. A wire
// tap lets attack tests observe, drop, modify, and inject frames.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <queue>
#include <vector>

#include "net/ip.hpp"
#include "net/transport.hpp"
#include "obs/metrics.hpp"
#include "util/clock.hpp"
#include "util/rng.hpp"

namespace fbs::net {

struct LinkParams {
  util::TimeUs delay = util::TimeUs{200};   // one-way propagation
  util::TimeUs jitter = util::TimeUs{0};    // uniform extra delay; >0 reorders
  double loss = 0.0;                        // P(frame dropped)
  double duplicate = 0.0;                   // P(frame delivered twice)
  /// Serialization rate in bits/second; 0 = infinite. With a finite rate
  /// the link transmits one frame at a time (store-and-forward), so e.g.
  /// 10e6 models the paper's dedicated 10 Mb/s Ethernet in virtual time.
  double bandwidth_bps = 0.0;

  /// Gilbert-Elliott burst loss: the link flips between a good state (drop
  /// probability `loss`, as above) and a bad state (drop probability
  /// `burst_loss`), transitioning per frame with the two probabilities
  /// below. `burst_enter` == 0 (the default) keeps the plain i.i.d. model.
  double burst_enter = 0.0;  // P(good -> bad) per frame
  double burst_exit = 0.25;  // P(bad -> good) per frame
  double burst_loss = 1.0;   // P(frame dropped) while in the bad state

  /// P(a random bit of the frame is flipped in flight). Corruption is
  /// applied after the loss draw; receivers see the damaged frame.
  double corrupt = 0.0;
};

class SimNetwork : public Transport {
 public:
  using ReceiveFn = Transport::ReceiveFn;

  /// Verdict from the attacker tap for each frame entering the wire.
  enum class TapVerdict { kPass, kDrop };
  using Tap = std::function<TapVerdict(Ipv4Address from, Ipv4Address to,
                                       util::Bytes& frame)>;

  SimNetwork(util::VirtualClock& clock, std::uint64_t seed)
      : clock_(clock), rng_(seed) {}

  /// Attach a host. Frames addressed (at the simnet layer) to `addr` are
  /// handed to `receive`.
  void attach(Ipv4Address addr, ReceiveFn receive) override;
  void detach(Ipv4Address addr) override;

  /// Link characteristics between a specific pair (symmetric), else default.
  void set_default_link(const LinkParams& params) { default_link_ = params; }
  void set_link(Ipv4Address a, Ipv4Address b, const LinkParams& params);

  /// Install/remove the wire tap (sees every frame before link effects).
  void set_tap(Tap tap) { tap_ = std::move(tap); }
  void clear_tap() { tap_ = nullptr; }

  /// Sever the a<->b link (both directions) for virtual times
  /// [from, until): frames entering the wire inside the window are dropped
  /// and counted. Windows may overlap; expired windows are pruned lazily.
  void partition(Ipv4Address a, Ipv4Address b, util::TimeUs from,
                 util::TimeUs until);
  /// Isolate `host` from every peer for [from, until) -- a crashed NIC or
  /// an unplugged cable, as opposed to the pairwise cut above.
  void partition_host(Ipv4Address host, util::TimeUs from, util::TimeUs until);
  void clear_partitions() { partitions_.clear(); }

  /// Transmit a frame. Link effects (tap, loss, duplication, delay) apply.
  void send(Ipv4Address from, Ipv4Address to, util::Bytes frame) override;

  /// Inject a frame directly to a destination after `delay` -- bypasses the
  /// tap and link effects; this is the attacker's transmitter.
  void inject(Ipv4Address to, util::Bytes frame,
              util::TimeUs delay = util::TimeUs{0});

  /// Schedule an arbitrary callback on the simulation clock (protocol
  /// timers: TCP retransmission, sweepers, ...). Runs in event order with
  /// frame deliveries.
  void call_later(util::TimeUs delay, std::function<void()> fn) override;

  /// Handle the earliest pending event, advancing the clock to its time:
  /// run a timer, or deliver a frame together with every frame queued
  /// right behind it that is addressed to the same host and already due.
  /// The batch stops at the first timer, other host or later frame, so
  /// events still run in (time, sequence) order. Returns false when idle.
  bool step();
  /// Run until no events remain.
  void run();

  /// Relaxed-atomic, 64-bit: the chaos suite asserts frame-conservation
  /// invariants (sent == delivered + every loss bucket) over these while
  /// pipeline workers run, so reads must be tear-free and wraps impossible.
  struct Counters {
    std::atomic<std::uint64_t> sent{0};
    std::atomic<std::uint64_t> delivered{0};
    std::atomic<std::uint64_t> lost{0};        // i.i.d. (good-state) loss
    std::atomic<std::uint64_t> burst_lost{0};  // Gilbert bad-state loss
    std::atomic<std::uint64_t> corrupted{0};   // bit flipped in flight
    std::atomic<std::uint64_t> partition_dropped{0};
    std::atomic<std::uint64_t> duplicated{0};
    std::atomic<std::uint64_t> tap_dropped{0};
    std::atomic<std::uint64_t> no_such_host{0};
    std::atomic<std::uint64_t> injected{0};   // frames via inject()
    std::atomic<std::uint64_t> in_flight{0};  // queued frames (not timers)
  };
  const Counters& counters() const { return counters_; }

  /// Uniform transport accounting (see Transport::Totals): received and
  /// tx_wire stay zero -- every frame either reaches a local sink or lands
  /// in one of the fault buckets folded into `dropped`.
  Totals totals() const override;

  /// Publish the fault counters as a pull source under `<prefix>.` names
  /// (e.g. `net.delivered`, `net.burst_lost`), plus the uniform
  /// `<prefix>.transport.*` family shared with every backend.
  void register_metrics(obs::MetricsRegistry& registry,
                        const std::string& prefix) const override;

 private:
  struct Event {
    util::TimeUs time;
    std::uint64_t seq;  // tie-break for determinism
    Ipv4Address to;
    util::Bytes frame;
    std::function<void()> callback;  // if set, a timer event
  };
  struct EventLater {
    bool operator()(const Event& a, const Event& b) const {
      return a.time != b.time ? a.time > b.time : a.seq > b.seq;
    }
  };

  struct Partition {
    bool all_links = false;  // host isolation: `a` cut off from everyone
    Ipv4Address a;
    Ipv4Address b;
    util::TimeUs from = 0;
    util::TimeUs until = 0;
  };

  /// Move the earliest event out of the queue.
  Event pop();
  const LinkParams& link_for(Ipv4Address a, Ipv4Address b) const;
  void schedule(Ipv4Address to, util::Bytes frame, util::TimeUs delay);
  bool partitioned(Ipv4Address from, Ipv4Address to);
  bool burst_drop(Ipv4Address from, Ipv4Address to, const LinkParams& link);

  util::VirtualClock& clock_;
  util::SplitMix64 rng_;
  std::map<Ipv4Address, ReceiveFn> hosts_;
  std::map<std::pair<Ipv4Address, Ipv4Address>, LinkParams> links_;
  std::map<std::pair<Ipv4Address, Ipv4Address>, util::TimeUs> link_busy_until_;
  std::map<std::pair<Ipv4Address, Ipv4Address>, bool> burst_bad_;
  std::vector<Partition> partitions_;
  LinkParams default_link_;
  Tap tap_;
  std::priority_queue<Event, std::vector<Event>, EventLater> queue_;
  /// The batch step() is delivering, kept for its capacity. step() takes
  /// it for the sink call, so a sink that sends or steps again is safe.
  std::vector<util::Bytes> batch_;
  std::uint64_t next_seq_ = 0;
  Counters counters_;
};

}  // namespace fbs::net
