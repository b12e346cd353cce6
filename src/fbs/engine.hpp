// The FBS protocol engine: FBSSend() / FBSReceive() of Figure 4, with the
// cache-accelerated send path of Figure 6 and the combined FST+TFKC fast
// path of Section 7.2.
//
// One FbsEndpoint is the protocol half living in one principal. It holds
// only soft state (flow tables and key caches); clearing every cache at any
// moment is safe and merely costs re-derivation, which is what preserves
// datagram semantics.
//
// There is one send path and one receive path. Sending is two phases:
// admit (flow classify, keying, lifetime wear-out accounting, confounder
// and timestamp draw, stats -- everything under the domain lock) parks a
// SealItem holding its own copy of the flow's crypto context, and
// seal_burst_into, the only sealing body, seals any number of parked
// datagrams without a lock: one MacBatch over the burst (8-lane MD5), then
// every DES-CBC body on the interleaved chains of cbc_encrypt_chains, then
// the wire. protect_into is admit plus a seal burst of one; the stack's
// seal queue (net/stack.hpp) admits each datagram as it is sent and seals
// up to four together. unprotect_burst_into is the only opening body
// (freshness, key, decrypt, MAC, accept); unprotect_into is a burst of
// one. The Section 5.3 single pass over the data (bench/support/fused.hpp)
// is measured as a bench ablation, not used here (EXPERIMENTS.md).
//
// Concurrency (DESIGN.md section 5f): per-flow state is striped across
// config.shards independent FlowDomains. protect_into, admit,
// seal_burst_into, unprotect_into and unprotect_burst_into are re-entrant
// -- any number of threads may call them concurrently, each with its own
// WorkContext (the caller's scratch); the engine takes exactly one domain
// lock per admitted datagram and per shard group of a receive burst, and
// none to seal (one per burst to record stage times when tracing). Key
// management (KeyManager / MKD) is deliberately serial behind its own
// lock: keying is the cold path.
//
// One deliberate deviation from Figure 4's pseudo-code: the paper computes
// the MAC over the plaintext body on send (S6, before encrypting at S8-9)
// but verifies at R7 *before* decrypting at R10-11, which cannot match for
// secret datagrams. We keep the send order and decrypt before verifying on
// receive; the MAC therefore authenticates the plaintext, as S6 intends.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <variant>

#include "crypto/algorithms.hpp"
#include "fbs/caches.hpp"
#include "fbs/domain.hpp"
#include "fbs/fam.hpp"
#include "fbs/header.hpp"
#include "fbs/keying.hpp"
#include "fbs/principal.hpp"
#include "fbs/replay.hpp"
#include "obs/metrics.hpp"
#include "obs/stages.hpp"
#include "util/clock.hpp"
#include "util/rng.hpp"

namespace fbs::core {

/// One datagram of a receive burst (see FbsEndpoint::unprotect_burst_into).
/// `source` and `body_out` are caller-owned and must outlive the call;
/// `outcome` is written per item, exactly as unprotect_into would have.
struct ReceiveBurstItem {
  const Principal* source = nullptr;  // claimed sender of this wire
  util::BytesView wire;               // FBSheader || body
  util::Bytes* body_out = nullptr;    // receives the plaintext body
  ReceiveIntoOutcome outcome = ReceiveError::kMalformed;
};

class FbsEndpoint {
 public:
  /// `keys` resolves pair-based master keys (KeyManager -> MKD -> PVC).
  /// `rng` seeds the per-domain confounder LCGs and the sfl counter.
  FbsEndpoint(Principal self, const FbsConfig& config, KeyManager& keys,
              const util::Clock& clock, util::RandomSource& rng);

  /// FBSSend: protect `d` (whose source must be this principal) into
  /// `wire_out` as `FBSheader || body`, reusing its capacity. On a
  /// flow-cache hit with warm buffers (`ctx` and `wire_out`) the whole call
  /// performs zero heap allocations. Returns false if no master key for the
  /// destination can be obtained (wire_out is left cleared). Safe to call
  /// from any number of threads concurrently, each passing its own
  /// WorkContext (and its own wire_out). Datagrams of distinct flows on
  /// distinct shards proceed fully in parallel; same-shard datagrams
  /// serialize on that shard's lock.
  bool protect_into(WorkContext& ctx, const Datagram& d, bool secret,
                    util::Bytes& wire_out);

  /// The first half of protect_into: resolve `d`'s flow and key, account
  /// for it (datagram, encryption and wear-out counts), draw its
  /// confounder and timestamp, and copy the flow's crypto context into
  /// `item`, whose `body` then views d.body. Returns false, counting
  /// key_unavailable, if no master key for the destination can be
  /// obtained. The caller sets item.wire_out (and may re-point item.body at
  /// the same bytes elsewhere) before sealing.
  bool admit(WorkContext& ctx, const Datagram& d, bool secret,
             SealItem& item);

  /// The exact size of the wire seal_burst_into will write for `item`:
  /// header, MAC and the (padded, if a block mode) body.
  static std::size_t wire_size(const SealItem& item);

  /// The second half: seal admitted datagrams, each into its wire_out.
  /// Takes no lock and touches no flow state, so the items may come from
  /// any domains and any number of admits. Verdicts and wire bytes do not
  /// depend on how datagrams are grouped into bursts.
  void seal_burst_into(WorkContext& ctx, std::span<SealItem> items);

  /// FBSReceive: validate `wire`, claimed to be from `source`; a burst of
  /// one through unprotect_burst_into. The plaintext body lands in
  /// `body_out` (capacity reused); on rejection its contents are
  /// unspecified. Same threading contract as protect_into. Replay
  /// check+commit executes atomically under the owning shard's lock, so a
  /// duplicated wire racing itself from two threads is accepted exactly
  /// once (strict-replay mode).
  ReceiveIntoOutcome unprotect_into(WorkContext& ctx,
                                    const Principal& source,
                                    util::BytesView wire,
                                    util::Bytes& body_out);

  /// Burst FBSReceive, the one receive implementation (unprotect_into is a
  /// burst of one). Its callers are the pipeline workers, with a burst per
  /// ring visit, and FbsIpMapping, with a burst per stack receive batch.
  /// Items are grouped by owning shard and each group is processed under
  /// ONE domain lock, in phases that each run in submission order: admit
  /// (parse, suite, freshness), resolve flow contexts, open, then MAC
  /// verify and replay commit. Every secret DES-CBC body of whole blocks
  /// (with config().bitslice_crypto set) goes to one CryptoBatch::open_cbc
  /// on ctx.batch -- mixed flow keys included; 3DES, ECB/CFB/OFB and
  /// plaintext bodies are opened inline. Outcome and plaintext land in each
  /// item. Verdicts do not depend on how datagrams are grouped into bursts.
  void unprotect_burst_into(WorkContext& ctx,
                            std::span<ReceiveBurstItem> items);

  /// Force the next datagram matching `attrs` onto a fresh flow (and hence
  /// a fresh key): rekeying "via the FAM by changing the sfl" (Section 5.2).
  void rekey(const FlowAttributes& attrs);

  /// Run the sweeper on every domain (split mode; combined mode expires
  /// lazily).
  std::size_t sweep();

  /// Crash/restart simulation: drop every piece of soft state this endpoint
  /// holds -- flow tables, both flow-key caches, and the freshness/replay
  /// cache, in every domain. Per the paper's soft-state claim this is safe
  /// at any moment and merely costs re-derivation on the next datagram.
  /// (Master-key state lives in the KeyManager/MKD; clear those separately
  /// for a full-host restart.)
  void clear_soft_state();

  /// Wire overhead of the security flow header itself.
  std::size_t header_overhead() const {
    return FbsHeaderView::overhead(config_.suite);
  }

  /// Worst-case wire growth of protect_into: header plus block-cipher
  /// padding (PKCS#7 adds 1..8 bytes in the ECB and CBC modes). This is
  /// what MTU budgeting -- the tcp_output.c fix -- must subtract.
  std::size_t max_wire_overhead() const;

  const Principal& self() const { return self_; }
  const FbsConfig& config() const { return config_; }
  /// Domain 0's policy (the only one when shards == 1, the common
  /// single-threaded configuration).
  FlowPolicy& policy() { return *domains_.front()->policy; }

  // --- Sharding introspection (tests, benches, the pipeline) ---
  std::size_t shard_count() const { return domains_.size(); }
  const FlowDomain& shard(std::size_t i) const { return *domains_[i]; }
  /// Which domain an outgoing datagram with `attrs` lands on.
  std::size_t send_shard_of(const FlowAttributes& attrs) const;
  /// Which domain a received datagram from `source` carrying `sfl` lands
  /// on. Both sides of the hash are wire facts, so every datagram of a
  /// flow -- including replays -- resolves to the same shard.
  std::size_t recv_shard_of(const Principal& source, Sfl sfl) const;
  /// recv_shard_of with the sfl peeked from the wire (unparseable wires go
  /// to the source's sfl-0 shard, which records the malformed rejection).
  std::size_t recv_shard_of_wire(const Principal& source,
                                 util::BytesView wire) const;

  // --- Stats, aggregated across domains ---
  // Each accessor locks every domain in turn and returns the sum by value:
  // a snapshot taken at call time, safe to call from any number of threads
  // concurrently. Per-domain figures: shard(i).
  SendStats send_stats() const;
  ReceiveStats receive_stats() const;
  CacheStats tfkc_stats() const;
  CacheStats rfkc_stats() const;
  FreshnessChecker::Stats freshness_stats() const;
  FamStats fam_stats() const;
  /// Aggregated megaflow control-plane counters; nullopt when the paper's
  /// fixed-table policy is active (max_flows_per_shard == 0). Counters and
  /// footprints sum across shards; map_load_factor reports the worst shard.
  std::optional<MegaflowStats> megaflow_stats() const;

  /// Domain 0's tracer (per-domain tracers: shard(i).tracer).
  obs::StageTracer& tracer() { return domains_.front()->tracer; }
  const obs::StageTracer& tracer() const { return domains_.front()->tracer; }

  /// Register every stat this endpoint keeps -- send/receive counters, the
  /// TFKC/RFKC 3C taxonomy, FAM and freshness stats, stage latencies -- as
  /// pull sources under `<prefix>.` dotted names. The endpoint must outlive
  /// `registry`. Counters are aggregated across shards; stage latencies are
  /// per shard (suffix `.shard<i>` when there is more than one).
  void register_metrics(obs::MetricsRegistry& registry,
                        const std::string& prefix) const;

 private:
  /// Lifetime policy check over a flow's usage so far (the combined path
  /// tracks it in the CombinedFlowEntry, the split path on the policy's
  /// FlowStateEntry).
  bool key_worn_out(std::uint64_t datagrams, std::uint64_t bytes,
                    util::TimeUs created, util::TimeUs now) const;

  /// Record a rejection in the domain's named field and by-kind array.
  /// Caller holds dom.mu.
  static ReceiveError reject(FlowDomain& dom, ReceiveError e);

  /// Resolve (sfl, crypto context) for an outgoing datagram; combined or
  /// split. Caller holds dom.mu and has encoded d.attrs into ctx.attrs.
  /// The pointer is into the domain's cache and is valid until the next
  /// lookup/insert under the same lock (i.e. for the rest of this
  /// datagram).
  std::optional<std::pair<Sfl, FlowCryptoContext*>> outgoing_flow(
      FlowDomain& dom, WorkContext& ctx, const Datagram& d);

  /// One slice of at most kBurstChunk items of a burst.
  void unprotect_burst_chunk(WorkContext& ctx,
                             std::span<ReceiveBurstItem> items);
  static void cache_key_into(Sfl sfl, const Principal& a, const Principal& b,
                             util::Bytes& out);

  /// One immutable Mac instance per suite, built eagerly in the
  /// constructor; Mac itself is stateless (make_context is const), so the
  /// array is safely shared by every domain and worker.
  const crypto::Mac& suite_mac(crypto::MacAlgorithm alg) const;

  std::size_t shard_index(std::uint64_t hash) const {
    return static_cast<std::size_t>(hash % domains_.size());
  }

  Principal self_;
  FbsConfig config_;
  KeyManager& keys_;
  const util::Clock& clock_;
  SflAllocator sfl_alloc_;  // atomic counter, shared by all domains
  std::array<std::unique_ptr<crypto::Mac>, 8> suite_macs_;  // by MacAlgorithm
  std::vector<std::unique_ptr<FlowDomain>> domains_;
};

}  // namespace fbs::core
