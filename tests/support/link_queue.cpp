#include "support/link_queue.hpp"

#include <algorithm>

namespace fbs::net {

const char* to_string(QueueDiscipline d) {
  switch (d) {
    case QueueDiscipline::kFifoTailDrop: return "fifo";
    case QueueDiscipline::kRed: return "red";
    case QueueDiscipline::kBackpressure: return "backpressure";
  }
  return "?";
}

LinkQueue::LinkQueue(const QueueParams& params, util::RandomSource& rng)
    : params_(params), rng_(rng) {
  if (params_.capacity == 0) params_.capacity = 1;
  red_min_ = params_.red_min_threshold ? params_.red_min_threshold
                                       : std::max<std::size_t>(1, params_.capacity / 4);
  red_max_ = params_.red_max_threshold ? params_.red_max_threshold
                                       : std::max(red_min_ + 1, params_.capacity * 3 / 4);
  high_ = params_.high_watermark ? params_.high_watermark
                                 : std::max<std::size_t>(1, params_.capacity * 3 / 4);
  low_ = params_.low_watermark ? params_.low_watermark
                               : params_.capacity / 4;
}

LinkQueue::Enqueue LinkQueue::push(util::Bytes frame, util::TimeUs now) {
  if (params_.discipline == QueueDiscipline::kRed) {
    // EWMA of the instantaneous depth, sampled at every arrival (the
    // classic per-packet update; idle decay is immaterial at the
    // simulator's traffic granularity).
    red_avg_ = (1.0 - params_.red_weight) * red_avg_ +
               params_.red_weight * static_cast<double>(q_.size());
    if (red_avg_ >= static_cast<double>(red_max_)) {
      ++stats_.red_dropped;
      red_count_ = 0;
      return Enqueue::kRedDrop;
    }
    if (red_avg_ >= static_cast<double>(red_min_)) {
      const double pb = params_.red_max_p *
                        (red_avg_ - static_cast<double>(red_min_)) /
                        static_cast<double>(red_max_ - red_min_);
      // Floyd & Jacobson's count term: the effective probability grows with
      // the accepted run length, spacing drops ~uniformly instead of in
      // bursts.
      const double denom = 1.0 - static_cast<double>(red_count_) * pb;
      const double pa = denom > 0 ? std::min(1.0, pb / denom) : 1.0;
      if (rng_.next_double() < pa) {
        ++stats_.red_dropped;
        red_count_ = 0;
        return Enqueue::kRedDrop;
      }
      ++red_count_;
    } else {
      red_count_ = 0;
    }
  }
  if (q_.size() >= params_.capacity) {
    ++stats_.tail_dropped;
    return Enqueue::kTailDrop;
  }
  q_.push_back(Queued{std::move(frame), now});
  ++stats_.enqueued;
  stats_.highwater = std::max(stats_.highwater, q_.size());
  return Enqueue::kAccepted;
}

std::optional<LinkQueue::Queued> LinkQueue::pop() {
  if (q_.empty()) return std::nullopt;
  Queued out = std::move(q_.front());
  q_.pop_front();
  ++stats_.dequeued;
  return out;
}

std::size_t LinkQueue::wipe() {
  const std::size_t n = q_.size();
  q_.clear();
  stats_.wiped += n;
  // The queue is empty now; let the average follow so a restarted router
  // does not inherit phantom congestion.
  red_avg_ = 0.0;
  red_count_ = 0;
  return n;
}

}  // namespace fbs::net
