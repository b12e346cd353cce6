#include "fbs/domain.hpp"

#include "fbs/megaflow.hpp"

namespace fbs::core {

namespace {

std::unique_ptr<FlowPolicy> make_policy(const FbsConfig& config,
                                        SflAllocator& sfl_alloc) {
  if (config.max_flows_per_shard != 0)
    return std::make_unique<MegaflowPolicy>(config.max_flows_per_shard,
                                            config.flow_threshold, sfl_alloc,
                                            /*expire_in_mapper=*/true);
  return std::make_unique<FiveTuplePolicy>(
      config.fst_size, config.flow_threshold, sfl_alloc,
      /*expire_in_mapper=*/true);
}

}  // namespace

FlowDomain::FlowDomain(const FbsConfig& config, const util::Clock& clock,
                       SflAllocator& sfl_alloc,
                       std::uint64_t confounder_seed)
    : confounder_gen(confounder_seed),
      policy(make_policy(config, sfl_alloc)),
      combined(config.combined_fst_tfkc ? config.fst_size : 0),
      tfkc(config.tfkc_size, kFlowKeyCacheWays),
      rfkc(config.rfkc_size, kFlowKeyCacheWays),
      freshness(clock, kFreshnessWindowMinutes, config.strict_replay) {
  tracer.set_enabled(config.trace_stages);
}

}  // namespace fbs::core
