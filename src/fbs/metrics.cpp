#include "fbs/metrics.hpp"

#include "fbs/ip_map.hpp"
#include "fbs/tunnel.hpp"

namespace fbs::core {

namespace {

// Emit helpers shared by the reference-capturing free overloads (callers
// own a long-lived struct) and the endpoint's this-capturing source (which
// aggregates across shards at snapshot time).

void emit_cache(obs::MetricsRegistry::Emitter& emit, const std::string& prefix,
                const CacheStats& stats) {
  emit.counter(prefix + ".hits", stats.hits);
  emit.counter(prefix + ".misses.cold", stats.cold_misses);
  emit.counter(prefix + ".misses.capacity", stats.capacity_misses);
  emit.counter(prefix + ".misses.collision", stats.collision_misses);
  emit.gauge(prefix + ".miss_rate", stats.miss_rate());
}

void emit_send(obs::MetricsRegistry::Emitter& emit, const std::string& prefix,
               const SendStats& stats) {
  emit.counter(prefix + ".datagrams", stats.datagrams);
  emit.counter(prefix + ".encrypted", stats.encrypted);
  emit.counter(prefix + ".flow_keys_derived", stats.flow_keys_derived);
  emit.counter(prefix + ".key_unavailable", stats.key_unavailable);
  emit.counter(prefix + ".lifetime_rekeys", stats.lifetime_rekeys);
}

void emit_recv(obs::MetricsRegistry::Emitter& emit, const std::string& prefix,
               const ReceiveStats& stats) {
  emit.counter(prefix + ".accepted", stats.accepted);
  emit.counter(prefix + ".flow_keys_derived", stats.flow_keys_derived);
  for (std::size_t i = 0; i < kReceiveErrorKinds; ++i) {
    const auto kind = static_cast<ReceiveError>(i);
    emit.counter(prefix + ".rejected." + to_string(kind), stats.by_kind[i]);
  }
}

void emit_fam(obs::MetricsRegistry::Emitter& emit, const std::string& prefix,
              const FamStats& stats) {
  emit.counter(prefix + ".datagrams", stats.datagrams);
  emit.counter(prefix + ".flows_created", stats.flows_created);
  emit.counter(prefix + ".mapper_hits", stats.mapper_hits);
  emit.counter(prefix + ".hash_evictions", stats.hash_evictions);
  emit.counter(prefix + ".mapper_expirations", stats.mapper_expirations);
  emit.counter(prefix + ".sweeper_expirations", stats.sweeper_expirations);
}

void emit_fresh(obs::MetricsRegistry::Emitter& emit, const std::string& prefix,
                const FreshnessChecker::Stats& stats) {
  emit.counter(prefix + ".fresh", stats.fresh);
  emit.counter(prefix + ".stale", stats.stale);
  emit.counter(prefix + ".replays", stats.replays);
}

}  // namespace

void register_metrics(obs::MetricsRegistry& registry,
                      const std::string& prefix, const CacheStats& stats) {
  registry.add_source([prefix, &stats](obs::MetricsRegistry::Emitter& emit) {
    emit_cache(emit, prefix, stats);
  });
}

void register_metrics(obs::MetricsRegistry& registry,
                      const std::string& prefix, const SendStats& stats) {
  registry.add_source([prefix, &stats](obs::MetricsRegistry::Emitter& emit) {
    emit_send(emit, prefix, stats);
  });
}

void register_metrics(obs::MetricsRegistry& registry,
                      const std::string& prefix, const ReceiveStats& stats) {
  registry.add_source([prefix, &stats](obs::MetricsRegistry::Emitter& emit) {
    emit_recv(emit, prefix, stats);
  });
}

void register_metrics(obs::MetricsRegistry& registry,
                      const std::string& prefix, const FamStats& stats) {
  registry.add_source([prefix, &stats](obs::MetricsRegistry::Emitter& emit) {
    emit_fam(emit, prefix, stats);
  });
}

void register_metrics(obs::MetricsRegistry& registry,
                      const std::string& prefix,
                      const FreshnessChecker::Stats& stats) {
  registry.add_source([prefix, &stats](obs::MetricsRegistry::Emitter& emit) {
    emit_fresh(emit, prefix, stats);
  });
}

void register_metrics(obs::MetricsRegistry& registry,
                      const std::string& prefix, const MkdStats& stats) {
  registry.add_source([prefix, &stats](obs::MetricsRegistry::Emitter& emit) {
    emit.counter(prefix + ".upcalls", stats.upcalls);
    emit.counter(prefix + ".directory_fetches", stats.directory_fetches);
    emit.counter(prefix + ".directory_failures", stats.directory_failures);
    emit.counter(prefix + ".directory_retries", stats.directory_retries);
    emit.counter(prefix + ".verify_failures", stats.verify_failures);
    emit.counter(prefix + ".master_keys_computed",
                 stats.master_keys_computed);
    emit.counter(prefix + ".negative_cache_hits", stats.negative_cache_hits);
    emit.counter(prefix + ".negative_cache_inserts",
                 stats.negative_cache_inserts);
    // Operator-facing aliases: how often we retried and how long we waited
    // doing it (virtual time; ms so dashboards stay readable).
    emit.counter(prefix + ".retries", stats.directory_retries);
    emit.counter(prefix + ".backoff_ms", stats.backoff_waited_us / 1000);
  });
}

void FbsEndpoint::register_metrics(obs::MetricsRegistry& registry,
                                   const std::string& prefix) const {
  // One source aggregating across shards at snapshot time: the accessors
  // take each domain's lock, so a snapshot racing live traffic reads a
  // coherent per-domain view.
  registry.add_source([prefix, this](obs::MetricsRegistry::Emitter& emit) {
    emit_send(emit, prefix + ".send", send_stats());
    emit_recv(emit, prefix + ".recv", receive_stats());
    emit_cache(emit, prefix + ".cache.tfkc", tfkc_stats());
    emit_cache(emit, prefix + ".cache.rfkc", rfkc_stats());
    emit_fresh(emit, prefix + ".freshness", freshness_stats());
    emit_fam(emit, prefix + ".fam", fam_stats());
    emit.gauge(prefix + ".shards", static_cast<double>(shard_count()));
    if (const auto m = megaflow_stats()) {
      const std::string mp = prefix + ".megaflow";
      emit.counter(mp + ".budget_evictions", m->budget_evictions);
      emit.counter(mp + ".wheel_cascades", m->wheel_cascades);
      emit.counter(mp + ".wheel_fires", m->wheel_fires);
      emit.counter(mp + ".sweep_touched", m->sweep_touched);
      emit.counter(mp + ".map_rehashes", m->map_rehashes);
      emit.counter(mp + ".slab_grows", m->slab_grows);
      emit.gauge(mp + ".live_flows", static_cast<double>(m->live_flows));
      emit.gauge(mp + ".peak_live_flows",
                 static_cast<double>(m->peak_live_flows));
      emit.gauge(mp + ".map_load_factor", m->map_load_factor);
      emit.gauge(mp + ".resident_bytes",
                 static_cast<double>(m->resident_bytes));
    }
  });
  // Stage latencies stay per shard (LatencyRecorder is single-writer; each
  // domain's recorder is written only under that domain's lock). Keep the
  // unsuffixed name in the common single-shard configuration.
  if (shard_count() == 1) {
    domains_.front()->tracer.register_metrics(registry, prefix);
  } else {
    for (std::size_t i = 0; i < domains_.size(); ++i)
      domains_[i]->tracer.register_metrics(
          registry, prefix + ".shard" + std::to_string(i));
  }
}

void KeyManager::register_metrics(obs::MetricsRegistry& registry,
                                  const std::string& prefix) const {
  registry.add_source([prefix, this](obs::MetricsRegistry::Emitter& emit) {
    emit_cache(emit, prefix + ".cache.mkc", mkc_stats());
    emit.counter(prefix + ".upcalls", upcalls());
  });
}

void MasterKeyDaemon::register_metrics(obs::MetricsRegistry& registry,
                                       const std::string& prefix) const {
  core::register_metrics(registry, prefix + ".mkd", stats_);
  core::register_metrics(registry, prefix + ".cache.pvc", pvc_.stats());
}

void FbsIpMapping::register_metrics(obs::MetricsRegistry& registry,
                                    const std::string& prefix) const {
  endpoint_.register_metrics(registry, prefix);
  registry.add_source([prefix, this](obs::MetricsRegistry::Emitter& emit) {
    emit.counter(prefix + ".ip.out.protected", counters_.out_protected);
    emit.counter(prefix + ".ip.out.bypassed", counters_.out_bypassed);
    emit.counter(prefix + ".ip.out.raw_ip", counters_.out_raw_ip);
    emit.counter(prefix + ".ip.out.dropped", counters_.out_dropped);
    emit.counter(prefix + ".ip.out.sealed", counters_.out_sealed);
    emit.counter(prefix + ".ip.out.seal_bursts", counters_.out_seal_bursts);
    const net::IpStack::Counters& stack = stack_.counters();
    emit.counter(prefix + ".ip.out.drains.full", stack.drains_full);
    emit.counter(prefix + ".ip.out.drains.pump", stack.drains_pump);
    emit.counter(prefix + ".ip.out.drains.receive", stack.drains_receive);
    emit.counter(prefix + ".ip.out.drains.flush", stack.drains_flush);
    emit.counter(prefix + ".ip.in.accepted", counters_.in_accepted);
    emit.counter(prefix + ".ip.in.bypassed", counters_.in_bypassed);
    emit.counter(prefix + ".ip.in.raw_ip", counters_.in_raw_ip);
    emit.counter(prefix + ".ip.in.deferred", counters_.in_deferred);
    for (std::size_t i = 0; i < kReceiveErrorKinds; ++i) {
      const auto kind = static_cast<ReceiveError>(i);
      emit.counter(prefix + ".ip.in.rejected." + to_string(kind),
                   counters_.in_rejected[i]);
    }
  });
  if (pipeline_) pipeline_->register_metrics(registry, prefix + ".pipeline");
}

void FbsTunnel::register_metrics(obs::MetricsRegistry& registry,
                                 const std::string& prefix) const {
  endpoint_.register_metrics(registry, prefix);
  registry.add_source([prefix, this](obs::MetricsRegistry::Emitter& emit) {
    emit.counter(prefix + ".tunnel.encapsulated", counters_.encapsulated);
    emit.counter(prefix + ".tunnel.decapsulated", counters_.decapsulated);
    emit.counter(prefix + ".tunnel.key_unavailable",
                 counters_.key_unavailable);
    emit.counter(prefix + ".tunnel.rejected", counters_.rejected);
    emit.counter(prefix + ".tunnel.inner_malformed",
                 counters_.inner_malformed);
  });
}

}  // namespace fbs::core
