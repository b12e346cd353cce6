#include "obs/stages.hpp"

namespace fbs::obs {

const char* to_string(Stage stage) {
  switch (stage) {
    case Stage::kSendClassify: return "send.classify";
    case Stage::kSendKeyDerive: return "send.key_derive";
    case Stage::kSendMac: return "send.mac";
    case Stage::kSendCipher: return "send.cipher";
    case Stage::kSendWire: return "send.wire";
    case Stage::kRecvParse: return "recv.parse";
    case Stage::kRecvFreshness: return "recv.freshness";
    case Stage::kRecvKey: return "recv.key";
    case Stage::kRecvCipher: return "recv.cipher";
    case Stage::kRecvMac: return "recv.mac";
    case Stage::kRecvBatchCrypto: return "recv.batch_crypto";
  }
  return "unknown";
}

std::string stage_metric_name(Stage stage) {
  return std::string("stage.") + to_string(stage);
}

void StageTracer::register_metrics(MetricsRegistry& registry,
                                   const std::string& prefix) const {
  registry.add_source([this, prefix](MetricsRegistry::Emitter& emit) {
    for (std::size_t i = 0; i < kStageCount; ++i) {
      const auto stage = static_cast<Stage>(i);
      const LatencyRecorder& rec = recorders_[i];
      if (rec.count() == 0) continue;
      emit.latency(prefix + "." + stage_metric_name(stage), rec.summary());
    }
  });
}

}  // namespace fbs::obs
