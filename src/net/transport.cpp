#include "net/transport.hpp"

namespace fbs::net {

void Transport::flush_holders() {
  // Indexed, not iterated: a flush that makes another sender hold appends
  // to the list, and that sender is flushed in this pass too.
  for (std::size_t i = 0; i < holders_.size(); ++i)
    holders_[i]->flush_before_pump();
  holders_.clear();
}

void Transport::register_transport_metrics(obs::MetricsRegistry& registry,
                                           const std::string& prefix) const {
  registry.add_source([prefix, this](obs::MetricsRegistry::Emitter& emit) {
    const Totals t = totals();
    emit.counter(prefix + ".transport.sent", t.sent);
    emit.counter(prefix + ".transport.received", t.received);
    emit.counter(prefix + ".transport.duplicated", t.duplicated);
    emit.counter(prefix + ".transport.injected", t.injected);
    emit.counter(prefix + ".transport.delivered", t.delivered);
    emit.counter(prefix + ".transport.tx_wire", t.tx_wire);
    emit.counter(prefix + ".transport.dropped", t.dropped);
    emit.gauge(prefix + ".transport.in_flight",
               static_cast<double>(t.in_flight));
  });
}

}  // namespace fbs::net
