// Per-stage latency tracing for the datagram path.
//
// The FBSSend pipeline is classify -> key-lookup/derive -> MAC -> cipher ->
// wire, and FBSReceive mirrors it (parse -> freshness -> key -> cipher ->
// MAC). A StageTracer owns one LatencyRecorder per stage and hands out
// scoped timers; when disabled (the default) a timer is a no-op so the fast
// path pays only a branch. Benches that want the per-packet CPU comparison
// unperturbed (fig 8) keep tracing off for the measured run and take a
// separate instrumented run for the metrics report.
#pragma once

#include <array>
#include <chrono>
#include <string>

#include "obs/metrics.hpp"

namespace fbs::obs {

enum class Stage {
  kSendClassify = 0,  // flow lookup / FST probe / FAM map
  kSendKeyDerive,     // flow key derivation (H over sfl|K_SD|S|D)
  kSendMac,           // MAC computation
  kSendCipher,        // body encryption
  kSendWire,          // header serialization
  kRecvParse,         // wire parse + header checks
  kRecvFreshness,     // freshness window / strict-replay probe
  kRecvKey,           // receive-side key recovery (RFKC / derivation)
  kRecvCipher,        // inline body decryption (3DES, ECB/CFB/OFB, scalar)
  kRecvMac,           // MAC verification
  kRecvBatchCrypto,   // one open_cbc over a burst's DES-CBC bodies
};
inline constexpr std::size_t kStageCount = 11;

const char* to_string(Stage stage);

/// Dotted metric suffix, e.g. "stage.send.mac".
std::string stage_metric_name(Stage stage);

class StageTracer {
 public:
  /// A scoped timer: records elapsed wall time into the owning tracer's
  /// recorder for `stage` on destruction (or finish()), if tracing was
  /// enabled when it was started.
  class Timer {
   public:
    Timer(Timer&&) = delete;
    Timer& operator=(Timer&&) = delete;
    ~Timer() { finish(); }

    void finish() {
      if (recorder_ == nullptr) return;
      const auto elapsed = std::chrono::steady_clock::now() - start_;
      recorder_->record_ns(static_cast<double>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
              .count()));
      recorder_ = nullptr;
    }

   private:
    friend class StageTracer;
    explicit Timer(LatencyRecorder* recorder) : recorder_(recorder) {
      if (recorder_ != nullptr) start_ = std::chrono::steady_clock::now();
    }

    LatencyRecorder* recorder_;
    std::chrono::steady_clock::time_point start_;
  };

  bool enabled() const { return enabled_; }
  void set_enabled(bool enabled) { enabled_ = enabled; }

  Timer start(Stage stage) {
    return Timer(enabled_ ? &recorders_[static_cast<std::size_t>(stage)]
                          : nullptr);
  }

  /// Record an externally measured duration. The sharded engine needs this
  /// for the one stage measured before the owning flow domain is known
  /// (wire parse resolves the sfl that picks the domain): the caller times
  /// the work itself, then records under the domain's lock.
  void record(Stage stage, double ns) {
    if (enabled_) recorders_[static_cast<std::size_t>(stage)].record_ns(ns);
  }

  const LatencyRecorder& recorder(Stage stage) const {
    return recorders_[static_cast<std::size_t>(stage)];
  }

  /// Publish all stages with samples as `<prefix>.stage.<dir>.<name>`.
  void register_metrics(MetricsRegistry& registry,
                        const std::string& prefix) const;

 private:
  bool enabled_ = false;
  std::array<LatencyRecorder, kStageCount> recorders_;
};

}  // namespace fbs::obs
