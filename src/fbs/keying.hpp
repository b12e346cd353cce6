// Zero-message keying (Section 5.1) and the key-management plumbing of
// Figure 5.
//
// The pair-based master key K_{S,D} = g^{sd} mod p is implicit: either end
// computes it from its own private value and the peer's certified public
// value, with no end-to-end message. Flow keys are derived as
//     K_f = H(sfl | K_{S,D} | S | D)
// so compromising one flow key reveals neither the master key nor any
// sibling flow key (Section 6.1).
//
// Figure 5's split is preserved: the MasterKeyDaemon is the user-space MKD
// owning the PVC and the expensive work (directory fetches over the secure
// flow bypass, certificate verification, modular exponentiation); the
// KeyManager is the in-kernel half owning the MKC and upcalling into the
// daemon on a miss.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>

#include "bignum/uint.hpp"
#include "cert/certificate.hpp"
#include "cert/directory.hpp"
#include "crypto/algorithms.hpp"
#include "crypto/des.hpp"
#include "crypto/des3.hpp"
#include "crypto/dh.hpp"
#include "crypto/md5.hpp"
#include "fbs/caches.hpp"
#include "fbs/principal.hpp"
#include "obs/metrics.hpp"
#include "util/clock.hpp"

namespace fbs::core {

/// A flow key K_f: one MD5 digest.
using FlowKey = std::array<std::uint8_t, crypto::Md5::kDigestSize>;

/// K_f = H(sfl | K_{S,D} | S | D) with H = MD5. S and D are the principal
/// addresses; their inclusion ties the flow key to this ordered pair
/// (Section 5.2). Allocation-free: `hash` is caller scratch.
FlowKey derive_flow_key(crypto::Md5& hash, Sfl sfl, util::BytesView master_key,
                        const Principal& S, const Principal& D);

/// Everything the datagram hot path needs from a flow key, derived once
/// when the flow key is: the DES key schedule (whose round keys also key
/// the bitsliced batch engine's lanes) and the keyed MAC context (key
/// hashing plus, for HMAC, both pad blocks). This is what the TFKC/RFKC and
/// the combined FST+TFKC store, so a cache hit hands back ready-to-run
/// cryptography instead of raw key bytes. It owns no heap memory, so a
/// flow-key miss builds one without allocating.
struct FlowCryptoContext {
  FlowKey key{};                    // K_f itself (to build other suites)
  crypto::AlgorithmSuite suite{};   // what des/mac below were built for
  std::optional<crypto::Des> des;   // engaged unless the suite is cipherless
  /// Engaged instead of `des` for the kDes3Ede suite: K_f (16 bytes) is
  /// stretched to the 24-byte EDE key as K_f | MD5(K_f)[0..8).
  std::optional<crypto::Des3> des3;
  crypto::MacContext mac;
};

/// Build the per-flow context for `suite`. `mac_alg` is the (cached,
/// per-suite) Mac instance matching suite.mac -- the caller owns it; only
/// the derived MacContext is stored.
FlowCryptoContext make_flow_crypto_context(const FlowKey& key,
                                           crypto::AlgorithmSuite suite,
                                           const crypto::Mac& mac_alg);

struct MkdStats {
  std::uint64_t upcalls = 0;
  std::uint64_t directory_fetches = 0;   // attempts, including retries
  std::uint64_t directory_failures = 0;  // fetch sequences that gave up
  std::uint64_t directory_retries = 0;   // extra attempts after a transient
  std::uint64_t verify_failures = 0;
  std::uint64_t master_keys_computed = 0;
  std::uint64_t negative_cache_hits = 0;     // upcalls short-circuited
  std::uint64_t negative_cache_inserts = 0;  // peers marked unresolvable
  std::uint64_t backoff_waited_us = 0;       // cumulative backoff time
};

/// Bounded retry with backoff + jitter for transient directory failures
/// (outages, timeouts), plus the TTL of the negative cache that absorbs
/// upcall storms for peers that stay unresolvable. All state this
/// produces is soft: wiping it merely costs re-fetching.
struct RetryPolicy {
  std::uint32_t max_attempts = 4;  // total fetch attempts per upcall
  util::TimeUs initial_backoff = util::TimeUs{50'000};  // before attempt 2
  double multiplier = 2.0;         // legacy schedule only
  util::TimeUs max_backoff = util::seconds(2);
  double jitter = 0.5;  // legacy schedule: each wait scaled by U[1-jitter, 1]
  /// Decorrelated jitter (default): wait_n = min(max_backoff,
  /// U[initial_backoff, 3 * wait_{n-1}]), with wait_0 = initial_backoff.
  /// Compared with jittered exponential backoff, the draws of different
  /// daemons spread over the whole interval instead of clustering near the
  /// shared nominal schedule, so a population retrying the same directory
  /// outage does not re-stampede in synchronized waves. Set false for the
  /// legacy multiplier/jitter schedule above.
  bool decorrelated = true;
  util::TimeUs negative_ttl = util::seconds(30);
  /// Jitter RNG seed. Each daemon mixes its own principal address into
  /// this, so a fleet sharing one policy still draws distinct schedules.
  std::uint64_t seed = 42;
};

/// User-space master key daemon: PVC + certificate fetch/verify + DH.
class MasterKeyDaemon {
 public:
  /// `verifier` judges fetched certificates: a CertificateAuthority for
  /// flat deployments, a cert::ChainVerifier for hierarchical ones.
  MasterKeyDaemon(Principal self, bignum::Uint private_value,
                  const crypto::DhGroup& group,
                  const cert::Verifier& verifier,
                  cert::DirectoryService& directory, const util::Clock& clock,
                  std::size_t pvc_size = 64,
                  CacheHashKind hash = CacheHashKind::kCrc32,
                  std::size_t pvc_ways = 2);

  /// The Upcall() of Figure 6: produce the pair-based master key for `peer`
  /// (fixed-width big-endian), or nullopt if no valid certificate can be
  /// obtained. Each PVC hit is re-verified before use ("a certificate can
  /// be verified each time it is used").
  std::optional<util::Bytes> upcall(const Principal& peer);

  /// Pre-load a certificate ("pin certain certificates in the cache upon
  /// initialization", Section 5.3).
  void pin_certificate(const cert::PublicValueCertificate& cert);

  /// Replace the retry/backoff/negative-cache parameters.
  void set_retry_policy(const RetryPolicy& policy);
  /// How backoff waits are served. In simulation this should advance the
  /// VirtualClock (so directory outages can clear while we wait); unset,
  /// retries are immediate.
  void set_backoff_waiter(std::function<void(util::TimeUs)> waiter) {
    waiter_ = std::move(waiter);
  }

  /// Crash/restart simulation: drop the PVC and the negative cache. Safe at
  /// any moment -- both are soft state, rebuilt on demand.
  void clear_soft_state();

  const Principal& self() const { return self_; }
  const crypto::DhGroup& group() const { return group_; }
  const RetryPolicy& retry_policy() const { return retry_; }
  const MkdStats& stats() const { return stats_; }
  const CacheStats& pvc_stats() const { return pvc_.stats(); }

  /// Publish MKD and PVC stats as pull sources under `<prefix>.` names.
  void register_metrics(obs::MetricsRegistry& registry,
                        const std::string& prefix) const;

 private:
  std::optional<cert::PublicValueCertificate> obtain_certificate(
      const Principal& peer);
  cert::FetchResult fetch_with_retry(const Principal& peer);
  /// Mix the daemon's principal address into the policy seed so identical
  /// policies still yield per-daemon schedules (decorrelation's premise).
  std::uint64_t jitter_seed(std::uint64_t base) const;

  Principal self_;
  bignum::Uint private_value_;
  const crypto::DhGroup& group_;
  const cert::Verifier& verifier_;
  cert::DirectoryService& directory_;
  const util::Clock& clock_;
  SetAssociativeCache<cert::PublicValueCertificate> pvc_;
  RetryPolicy retry_;
  util::SplitMix64 jitter_rng_{42};
  std::function<void(util::TimeUs)> waiter_;
  std::map<util::Bytes, util::TimeUs> negative_;  // peer -> entry expiry
  MkdStats stats_;
};

/// Kernel-side key manager: the MKC, with upcalls to the daemon on miss.
///
/// Thread-safe behind one mutex, held across the daemon upcall: keying is
/// deliberately serial (DESIGN.md section 5f). Key derivation happens once
/// per flow, not per datagram, so serializing it costs nothing on the
/// sharded fast path, and the MasterKeyDaemon (directory fetches, backoff
/// waits, DH exponentiation) stays single-threaded and lock-free inside.
class KeyManager {
 public:
  KeyManager(MasterKeyDaemon& daemon, std::size_t mkc_size = 64,
             CacheHashKind hash = CacheHashKind::kCrc32,
             std::size_t mkc_ways = 2)
      : daemon_(daemon), mkc_(mkc_size, mkc_ways, hash) {}

  /// K_{S,D} for self<->peer, copied into `out` (its capacity reused, so
  /// an MKC hit does not allocate); cached in the MKC. false if no master
  /// key can be obtained.
  bool master_key_into(const Principal& peer, util::Bytes& out);
  /// Allocating convenience form of master_key_into.
  std::optional<util::Bytes> master_key(const Principal& peer);

  /// Drop a cached master key (e.g. after peer key rollover).
  void invalidate(const Principal& peer) {
    std::lock_guard<std::mutex> lock(mu_);
    mkc_.erase(peer.address);
  }

  /// Crash/restart simulation: wipe the MKC (soft state; re-derived via
  /// upcalls on the next datagram).
  void clear_soft_state() {
    std::lock_guard<std::mutex> lock(mu_);
    mkc_.clear();
  }

  /// Snapshot taken under the lock.
  CacheStats mkc_stats() const {
    std::lock_guard<std::mutex> lock(mu_);
    return mkc_.stats();
  }
  std::uint64_t upcalls() const {
    return upcalls_.load(std::memory_order_relaxed);
  }

  /// Publish MKC stats and the upcall counter under `<prefix>.` names.
  void register_metrics(obs::MetricsRegistry& registry,
                        const std::string& prefix) const;

 private:
  MasterKeyDaemon& daemon_;
  mutable std::mutex mu_;  // guards mkc_ and the daemon upcall
  SetAssociativeCache<util::Bytes> mkc_;
  std::atomic<std::uint64_t> upcalls_{0};
};

}  // namespace fbs::core
