// Egress queue disciplines for transit routers (transit_mesh.hpp).
//
// A router's output port holds a bounded frame queue drained at the link's
// serialization rate; the discipline decides what happens when traffic
// arrives faster than the link drains:
//
//   kFifoTailDrop  -- classic drop-tail: accept until full, then drop.
//   kRed           -- Random Early Detection (Floyd & Jacobson 1993): an
//                     EWMA of the queue depth drives a probabilistic drop
//                     between two thresholds, spacing drops out so bursts
//                     degrade gracefully instead of cliff-dropping whole
//                     windows (the congestion-collapse scenario's remedy).
//   kBackpressure  -- no early drop; crossing a high watermark raises a
//                     hop-local xoff to upstream senders (IRON's
//                     backpressure forwarder is the exemplar), cleared at a
//                     low watermark. The hard capacity still tail-drops, so
//                     a jammed mesh sheds load instead of deadlocking.
//
// Every rejected frame is attributed to exactly one counter; the chaos
// scenarios sum these against SimNetwork's wire accounting to prove frame
// conservation across the whole mesh.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>

#include "util/bytes.hpp"
#include "util/clock.hpp"
#include "util/rng.hpp"

namespace fbs::net {

enum class QueueDiscipline : std::uint8_t {
  kFifoTailDrop,
  kRed,
  kBackpressure,
};

const char* to_string(QueueDiscipline d);

struct QueueParams {
  QueueDiscipline discipline = QueueDiscipline::kFifoTailDrop;
  /// Hard capacity in frames; the discipline may reject earlier, never
  /// later. 0 is clamped to 1.
  std::size_t capacity = 64;

  // RED knobs (defaults derived from capacity when left 0): drop nothing
  // below min_threshold, drop everything at/above max_threshold, and
  // interpolate the early-drop probability up to max_p in between.
  std::size_t red_min_threshold = 0;  // 0 -> capacity / 4
  std::size_t red_max_threshold = 0;  // 0 -> capacity * 3 / 4
  double red_max_p = 0.1;
  /// EWMA weight for the average depth. Classic RED uses small weights over
  /// per-packet samples; 0.25 tracks the simulator's burst granularity.
  double red_weight = 0.25;

  // Backpressure watermarks (defaults derived from capacity when left 0).
  std::size_t high_watermark = 0;  // 0 -> capacity * 3 / 4
  std::size_t low_watermark = 0;   // 0 -> capacity / 4
};

/// One egress queue. Single-threaded by design: it lives inside the
/// discrete-event simulation, so all calls happen on the sim thread.
class LinkQueue {
 public:
  enum class Enqueue : std::uint8_t {
    kAccepted,
    kTailDrop,  // FIFO full (or backpressure hard cap)
    kRedDrop,   // RED early drop
  };

  struct Stats {
    std::uint64_t enqueued = 0;
    std::uint64_t dequeued = 0;
    std::uint64_t tail_dropped = 0;
    std::uint64_t red_dropped = 0;
    std::uint64_t wiped = 0;  // cleared by a router crash
    std::size_t highwater = 0;
  };

  LinkQueue(const QueueParams& params, util::RandomSource& rng);

  /// Apply the discipline and either store the frame or reject it.
  Enqueue push(util::Bytes frame, util::TimeUs now);

  struct Queued {
    util::Bytes frame;
    util::TimeUs enqueued_at = 0;
  };
  std::optional<Queued> pop();

  /// Crash semantics: queued frames are soft state and vanish. Returns how
  /// many were wiped (counted in stats().wiped).
  std::size_t wipe();

  std::size_t depth() const { return q_.size(); }
  std::size_t capacity() const { return params_.capacity; }
  const QueueParams& params() const { return params_; }
  const Stats& stats() const { return stats_; }
  double red_avg() const { return red_avg_; }

  /// Watermark predicates for the backpressure discipline.
  bool above_high() const { return q_.size() >= high_; }
  bool below_low() const { return q_.size() <= low_; }

 private:
  QueueParams params_;
  util::RandomSource& rng_;
  std::deque<Queued> q_;
  Stats stats_;
  std::size_t red_min_ = 0;
  std::size_t red_max_ = 0;
  std::size_t high_ = 0;
  std::size_t low_ = 0;
  double red_avg_ = 0.0;
  /// Accepted frames since the last RED drop; stretches drop spacing the
  /// way the 1993 paper's count term does.
  std::uint64_t red_count_ = 0;
};

}  // namespace fbs::net
