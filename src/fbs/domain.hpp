// Striped flow-state domains: the unit of concurrency for the sharded
// datagram engine.
//
// The paper's kernel implementation serializes all of FBSSend/FBSReceive
// inside the 4.4BSD IP stack. Per-flow state, though, is naturally
// partitionable -- nothing on the datagram path ever relates two different
// flows -- so the engine stripes every piece of mutable per-flow state
// (FST/policy, TFKC, RFKC, combined entries, freshness/replay windows,
// confounder generator, stats, stage tracer) into N independent FlowDomain
// shards selected by a flow hash. Two flows on different shards never share
// a lock or a cache line; two datagrams of the same flow always land on the
// same shard, which is what keeps per-flow semantics (replay windows, key
// wear-out counters, FST gap detection) exactly as strong as in the
// single-threaded engine.
//
// Locking contract: FlowDomain::mu is held for the ENTIRE admit of an
// outgoing datagram and the ENTIRE unprotect of a receive group touching
// that domain. One lock for the whole operation is what makes the replay
// check+commit pair a single atomic step per shard (see replay.hpp) and
// keeps the per-flow MacContext safe to mutate; the seal runs outside it,
// on the copy of the flow's context the admit took (SealItem). The lock is
// uncontended unless two threads genuinely race on the same flow's shard;
// its cost is nanoseconds against the tens of microseconds of
// per-datagram cryptography.
//
// Everything here is soft state, exactly as in the unsharded engine:
// clearing any domain at any moment merely costs re-derivation.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <variant>
#include <vector>

#include "crypto/algorithms.hpp"
#include "crypto/batch.hpp"
#include "crypto/block_modes.hpp"
#include "crypto/md5.hpp"
#include "fbs/caches.hpp"
#include "fbs/fam.hpp"
#include "fbs/header.hpp"
#include "fbs/keying.hpp"
#include "fbs/principal.hpp"
#include "fbs/replay.hpp"
#include "obs/stages.hpp"
#include "util/clock.hpp"
#include "util/rng.hpp"

namespace fbs::core {

/// Replay window half-width (Section 6.2): a timestamp within +/- this many
/// minutes of the receiver's clock is fresh.
inline constexpr std::uint32_t kFreshnessWindowMinutes = 5;
/// The flow key caches (TFKC, RFKC) are direct-mapped; they, the FST and
/// the combined FST+TFKC are indexed by CRC-32 (Section 7.2).
inline constexpr std::size_t kFlowKeyCacheWays = 1;

struct FbsConfig {
  crypto::AlgorithmSuite suite{};  // keyed MD5 + DES-CBC by default

  /// Flow state table (Figure 7): size and conversation gap threshold.
  /// With sharding, each domain gets its own table of this size.
  std::size_t fst_size = 256;
  util::TimeUs flow_threshold = util::seconds(600);

  /// Flow key caches (per domain, like the FST).
  std::size_t tfkc_size = 256;
  std::size_t rfkc_size = 256;

  /// Section 7.2's optimization: merge the FST and the TFKC so mapper and
  /// key lookup are one probe. false exercises the split Figure 4/6 path.
  bool combined_fst_tfkc = true;

  /// The optional strict within-window replay cache extension (Section
  /// 6.2 concedes replays inside the freshness window).
  bool strict_replay = false;

  /// Key-lifetime policy (Section 5.2: "With use, an encryption key will
  /// 'wear out' and should be changed... rekeying can be easily
  /// accomplished via the FAM by changing the sfl. Rekeying decisions are
  /// made by policy modules."). Zero disables a limit. When a flow exceeds
  /// any limit, the next datagram transparently starts a fresh flow
  /// (fresh sfl, fresh key); the receiver needs no coordination.
  std::uint64_t rekey_after_datagrams = 0;
  std::uint64_t rekey_after_bytes = 0;
  util::TimeUs rekey_after_age = 0;

  /// Route eligible DES-CBC decryption through the 256-lane bitsliced batch
  /// engine: worker bursts are decrypted cross-datagram before per-datagram
  /// MAC verification, and single datagrams above the planner's threshold
  /// split their own blocks across lanes. false forces the scalar
  /// table-driven core everywhere (the fig8 "DES+MD5 scalar" curve).
  bool bitslice_crypto = true;

  /// Record per-stage latencies on the datagram path. Off by default: the
  /// steady_clock reads would perturb the per-packet CPU measurements of
  /// the Figure 8 bench, so benches opt in for instrumented runs only.
  bool trace_stages = false;

  /// Number of independent flow-state domains (shards). 1 reproduces the
  /// single-threaded engine's exact behaviour; a shard-per-core value lets
  /// a worker pool process distinct flows fully in parallel. 0 is treated
  /// as 1.
  std::size_t shards = 1;

  /// Non-zero selects the million-flow control plane (megaflow.hpp): each
  /// shard's FAM policy becomes a budgeted flat-hash table + timer wheel
  /// holding at most this many concurrent flows, with exact five-tuple
  /// matching and O(expired) sweeps. fst_size is then ignored by the FAM
  /// (it still sizes nothing else), and the combined FST+TFKC path is
  /// disabled -- the Section 7.2 merge assumes the FST is the small
  /// direct-mapped array. Zero keeps the paper's FiveTuplePolicy.
  std::size_t max_flows_per_shard = 0;
};

enum class ReceiveError : std::uint8_t {
  kMalformed,     // header does not parse / unknown suite
  kStale,         // timestamp outside the freshness window
  kReplay,        // strict replay cache rejection
  kUnknownPeer,   // no master key obtainable for the claimed source
  kBadMac,        // MAC mismatch (tampering or wrong flow key)
  kDecryptFailed, // ciphertext malformed
};

inline constexpr std::size_t kReceiveErrorKinds = 6;

const char* to_string(ReceiveError e);

/// Demultiplexing info for an accepted datagram: the body lands in the
/// caller's buffer, so only the flow facts travel in the result.
struct ReceivedInfo {
  Sfl sfl = 0;
  bool was_secret = false;
  crypto::AlgorithmSuite suite;
};

using ReceiveIntoOutcome = std::variant<ReceivedInfo, ReceiveError>;

struct SendStats {
  std::uint64_t datagrams = 0;
  std::uint64_t encrypted = 0;
  std::uint64_t flow_keys_derived = 0;  // TFKC / combined-table misses
  std::uint64_t key_unavailable = 0;    // master key could not be obtained
  std::uint64_t lifetime_rekeys = 0;    // flows retired by lifetime policy
};

struct ReceiveStats {
  std::uint64_t accepted = 0;
  std::uint64_t rejected_malformed = 0;
  std::uint64_t rejected_stale = 0;
  std::uint64_t rejected_replay = 0;
  std::uint64_t rejected_unknown_peer = 0;
  std::uint64_t rejected_bad_mac = 0;
  std::uint64_t rejected_decrypt = 0;
  std::uint64_t flow_keys_derived = 0;  // RFKC misses

  /// The same rejections indexed by ReceiveError, so experiments can report
  /// degraded-mode behaviour generically without naming each field.
  std::array<std::uint64_t, kReceiveErrorKinds> by_kind{};

  std::uint64_t rejected_by(ReceiveError e) const {
    return by_kind[static_cast<std::size_t>(e)];
  }
  std::uint64_t rejected() const {
    return rejected_malformed + rejected_stale + rejected_replay +
           rejected_unknown_peer + rejected_bad_mac + rejected_decrypt;
  }
};

/// Receive bursts are processed in chunks of at most this many datagrams.
/// Deliberately NOT tied to CryptoBatch::kLanes: the chunk sizes the
/// receive scratch every WorkContext carries, so it must stay modest even
/// when the bitslice engine widens; 64 datagrams of a few blocks each
/// already fill the wide passes, since CBC decrypt splits datagrams across
/// lanes.
inline constexpr std::size_t kBurstChunk = 64;

/// The MAC's non-payload input: flags, suite, confounder, timestamp.
inline constexpr std::size_t kMacPrefixSize = 10;
/// Room for any MAC tag we produce (MD5 = 16, SHA-1 = 20).
inline constexpr std::size_t kMaxMacSize = 64;

/// One datagram between FbsEndpoint::admit and FbsEndpoint::seal_burst_into.
/// Admit fills the header (all but the MAC) and a copy of the flow's
/// crypto context: its own Des/Des3 schedule and MacContext, never a
/// pointer into the TFKC or the combined table, so a later admit may evict
/// or rekey the flow's entry before this datagram is sealed. The context
/// holds no heap memory, so parking one allocates nothing.
struct SealItem {
  FbsHeaderView header;      // sfl, confounder, timestamp, suite, secret
  FlowCryptoContext crypto;  // the flow's cipher and MAC state, copied
  std::size_t shard = 0;     // the admitting domain (for stage tracing)
  util::BytesView body;      // the plaintext; must outlive the seal
  util::Bytes* wire_out = nullptr;  // receives FBSheader || body
  std::array<std::uint8_t, kMacPrefixSize> mac_prefix{};  // MAC job input
  std::array<std::uint8_t, kMaxMacSize> tag{};            // MAC job output
};

/// Per-worker scratch making protect_into/unprotect_into re-entrant: every
/// buffer the single-threaded engine kept as an endpoint member now travels
/// with the calling thread. One WorkContext per concurrent caller; reusing
/// it across datagrams preserves the zero-allocation warm path. The context
/// holds no flow state -- it is pure scratch and may be discarded freely.
class WorkContext {
 public:
  WorkContext() = default;
  WorkContext(const WorkContext&) = delete;
  WorkContext& operator=(const WorkContext&) = delete;

  util::Bytes attrs;       // FlowAttributes encoding for FST/shard probes
  util::Bytes key;         // TFKC/RFKC cache key staging
  util::Bytes body;        // ciphertext staging on send
  util::Bytes master;      // K_{S,D} staging for a flow-key derivation
  crypto::Md5 kdf_hash;    // H of Section 5.2 (need not equal the MAC hash)
  /// The 256-lane bitsliced DES engine plus its batch planner. Per worker,
  /// not per domain: the lane registers are scratch, and keeping them with
  /// the calling thread lets every worker run wide passes concurrently.
  crypto::CryptoBatch batch;
  /// The receive burst's MAC verifier (8-lane MD5). Per worker for the
  /// same reason.
  crypto::MacBatch mac_batch;

  /// Receive-chunk scratch (FbsEndpoint::unprotect_burst_into), one slot,
  /// one open_cbc job and one MAC job per datagram of the largest chunk
  /// seen so far: a burst of one -- every unprotect_into -- keeps one slot,
  /// not kBurstChunk of them. Grown on first use, then reused.
  struct ReceiveSlot {
    std::optional<FbsHeaderView> header;
    std::size_t shard = 0;
    double parse_ns = 0;
    FlowCryptoContext* fctx = nullptr;  // valid for the locked group only
    FlowKey key{};  // the flow key fctx was built from, for a rebuild
    bool grouped = false;
    bool batched = false;  // decrypted by open_cbc, padding not yet checked
    /// fctx was derived for this group and is not in the RFKC: it enters
    /// it when this datagram is accepted.
    bool derived = false;
    /// fctx came from an earlier datagram's derivation in this group; the
    /// RFKC lookup this datagram would have made alone runs at commit.
    bool follows = false;
    bool verified = false;  // reached the MAC check: tag and tag_size set
    std::size_t tag_size = 0;
    std::array<std::uint8_t, kMacPrefixSize> mac_prefix{};  // MAC job input
    std::array<std::uint8_t, kMaxMacSize> tag{};  // the MAC job's output
  };
  std::vector<ReceiveSlot> recv_slots;
  std::vector<crypto::CbcOpenJob> open_jobs;
  std::vector<crypto::MacJob> mac_jobs;
  /// Seal-burst scratch (FbsEndpoint::seal_burst_into): the burst's
  /// DES-CBC bodies as interleaved chains. Its MAC jobs reuse mac_jobs.
  std::vector<crypto::CbcChain<crypto::Des>> seal_chains;
  /// Flow contexts built for one locked receive group: one derived on an
  /// RFKC miss (it enters the RFKC only when its datagram is accepted), or
  /// a flow seen under a different header suite than its context's (a
  /// cached or derived context is never re-suited from an unauthenticated
  /// header). At most one per datagram; capacity is reserved to
  /// kBurstChunk on first use so pointers into it stay valid for the
  /// whole group; emptied when the group ends.
  std::vector<FlowCryptoContext> rebuilt;
};

/// One row of the merged FST+TFKC (Section 7.2).
struct CombinedFlowEntry {
  bool valid = false;
  FlowAttributes attrs;
  Sfl sfl = 0;
  FlowCryptoContext ctx;  // ready key schedule + keyed MAC context
  util::TimeUs created = 0;
  util::TimeUs last = 0;
  std::uint64_t datagrams = 0;
  std::uint64_t bytes = 0;
};

/// One shard of the engine's mutable per-flow state. All members are
/// guarded by `mu` (held for a whole datagram operation); the engine is the
/// only writer, tests and the metrics aggregators are read-only consumers
/// that also take the lock.
class FlowDomain {
 public:
  FlowDomain(const FbsConfig& config, const util::Clock& clock,
             SflAllocator& sfl_alloc, std::uint64_t confounder_seed);

  FlowDomain(const FlowDomain&) = delete;
  FlowDomain& operator=(const FlowDomain&) = delete;

  mutable std::mutex mu;
  util::Lcg48 confounder_gen;
  std::unique_ptr<FlowPolicy> policy;
  std::vector<CombinedFlowEntry> combined;  // FST+TFKC merged (Section 7.2)
  SetAssociativeCache<FlowCryptoContext> tfkc;
  SetAssociativeCache<FlowCryptoContext> rfkc;
  FreshnessChecker freshness;
  SendStats send_stats;
  ReceiveStats receive_stats;
  obs::StageTracer tracer;
};

}  // namespace fbs::core
