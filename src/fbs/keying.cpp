#include "fbs/keying.hpp"

#include <algorithm>
#include <array>

#include "crypto/md5.hpp"

namespace fbs::core {

FlowKey derive_flow_key(crypto::Md5& hash, Sfl sfl, util::BytesView master_key,
                        const Principal& S, const Principal& D) {
  std::uint8_t sfl_bytes[8];
  for (int i = 0; i < 8; ++i)
    sfl_bytes[i] = static_cast<std::uint8_t>(sfl >> (56 - 8 * i));
  hash.reset();
  hash.update(sfl_bytes);
  hash.update(master_key);
  hash.update(S.address);
  hash.update(D.address);
  FlowKey key;
  hash.finish_into(key.data());
  return key;
}

FlowCryptoContext make_flow_crypto_context(const FlowKey& key,
                                           crypto::AlgorithmSuite suite,
                                           const crypto::Mac& mac_alg) {
  FlowCryptoContext ctx;
  ctx.key = key;
  ctx.suite = suite;
  ctx.mac = mac_alg.make_context(key);
  if (suite.cipher == crypto::CipherAlgorithm::kDes3Ede) {
    // Stretch K_f to the 24-byte EDE key: K_f | MD5(K_f), truncated. The
    // derivation is deterministic from K_f alone, so both ends agree
    // without any extra negotiation.
    std::array<std::uint8_t, crypto::Des3::kKeySize> k3{};
    crypto::Md5 h;
    h.update(key);
    std::uint8_t ext[crypto::Md5::kDigestSize];
    h.finish_into(ext);
    std::copy(key.begin(), key.end(), k3.begin());
    std::copy_n(ext, k3.size() - key.size(), k3.begin() + key.size());
    ctx.des3.emplace(util::BytesView(k3));
  } else if (suite.cipher != crypto::CipherAlgorithm::kNone) {
    ctx.des.emplace(util::BytesView(key).first(crypto::Des::kKeySize));
  }
  return ctx;
}

MasterKeyDaemon::MasterKeyDaemon(Principal self, bignum::Uint private_value,
                                 const crypto::DhGroup& group,
                                 const cert::Verifier& verifier,
                                 cert::DirectoryService& directory,
                                 const util::Clock& clock,
                                 std::size_t pvc_size, CacheHashKind hash,
                                 std::size_t pvc_ways)
    : self_(std::move(self)),
      private_value_(std::move(private_value)),
      group_(group),
      verifier_(verifier),
      directory_(directory),
      clock_(clock),
      pvc_(pvc_size, pvc_ways, hash) {
  jitter_rng_ = util::SplitMix64(jitter_seed(retry_.seed));
}

std::uint64_t MasterKeyDaemon::jitter_seed(std::uint64_t base) const {
  // FNV-1a over the principal address.
  std::uint64_t h = 1469598103934665603ull;
  for (const std::uint8_t b : self_.address) {
    h ^= b;
    h *= 1099511628211ull;
  }
  return base ^ h;
}

void MasterKeyDaemon::pin_certificate(
    const cert::PublicValueCertificate& cert) {
  pvc_.insert(cert.subject, cert);
}

void MasterKeyDaemon::set_retry_policy(const RetryPolicy& policy) {
  retry_ = policy;
  jitter_rng_ = util::SplitMix64(jitter_seed(policy.seed));
}

void MasterKeyDaemon::clear_soft_state() {
  pvc_.clear();
  negative_.clear();
}

cert::FetchResult MasterKeyDaemon::fetch_with_retry(const Principal& peer) {
  const std::uint32_t attempts = retry_.max_attempts ? retry_.max_attempts : 1;
  util::TimeUs backoff = retry_.initial_backoff;  // legacy: next nominal wait
  util::TimeUs prev = retry_.initial_backoff;     // decorrelated: last wait
  for (std::uint32_t attempt = 1;; ++attempt) {
    ++stats_.directory_fetches;
    auto result = directory_.fetch(peer.address);
    if (!result.transient() || attempt >= attempts) return result;
    // Transient failure: back off (with jitter, so a population of daemons
    // retrying the same outage does not stampede) and try again.
    ++stats_.directory_retries;
    util::TimeUs wait;
    if (retry_.decorrelated) {
      // wait = U[initial, 3 * prev], capped. Each draw's upper bound chases
      // the previous *actual* wait, not a shared nominal schedule.
      const double lo = static_cast<double>(retry_.initial_backoff);
      double hi = 3.0 * static_cast<double>(prev);
      if (retry_.max_backoff > 0)
        hi = std::min(hi, static_cast<double>(retry_.max_backoff));
      hi = std::max(hi, lo);
      wait = static_cast<util::TimeUs>(
          lo + jitter_rng_.next_double() * (hi - lo));
      prev = wait;
    } else {
      wait = backoff;
      if (retry_.jitter > 0) {
        const double scale = 1.0 - retry_.jitter * jitter_rng_.next_double();
        wait = static_cast<util::TimeUs>(static_cast<double>(wait) * scale);
      }
      backoff = static_cast<util::TimeUs>(static_cast<double>(backoff) *
                                          retry_.multiplier);
      if (retry_.max_backoff > 0)
        backoff = std::min(backoff, retry_.max_backoff);
    }
    stats_.backoff_waited_us += static_cast<std::uint64_t>(wait);
    if (waiter_ && wait > 0) waiter_(wait);
  }
}

std::optional<cert::PublicValueCertificate>
MasterKeyDaemon::obtain_certificate(const Principal& peer) {
  if (const auto* cached = pvc_.lookup(peer.address)) {
    // Verify on every use; a stale or forged cache entry must not yield a
    // master key.
    if (verifier_.verify(*cached, clock_.now()) == cert::CertStatus::kValid)
      return *cached;
    ++stats_.verify_failures;
    pvc_.erase(peer.address);
  }

  // Negative cache: a peer that recently proved unresolvable is not worth
  // another fetch until its entry expires (prevents upcall storms when a
  // busy flow keeps asking for a dead peer).
  if (const auto neg = negative_.find(peer.address); neg != negative_.end()) {
    if (clock_.now() < neg->second) {
      ++stats_.negative_cache_hits;
      return std::nullopt;
    }
    negative_.erase(neg);
  }

  // PVC miss: fetch over the secure flow bypass (unauthenticated; the
  // signature check below is what makes the result trustworthy), retrying
  // transient directory failures with backoff.
  auto fetched = fetch_with_retry(peer);
  if (!fetched.ok()) {
    ++stats_.directory_failures;
    negative_[peer.address] = clock_.now() + retry_.negative_ttl;
    ++stats_.negative_cache_inserts;
    return std::nullopt;
  }
  if (verifier_.verify(*fetched, clock_.now()) != cert::CertStatus::kValid) {
    ++stats_.verify_failures;
    return std::nullopt;
  }
  pvc_.insert(peer.address, *fetched.cert);
  return std::move(fetched.cert);
}

std::optional<util::Bytes> MasterKeyDaemon::upcall(const Principal& peer) {
  ++stats_.upcalls;
  const auto cert = obtain_certificate(peer);
  if (!cert) return std::nullopt;
  ++stats_.master_keys_computed;
  const bignum::Uint peer_public =
      bignum::Uint::from_bytes_be(cert->public_value);
  return crypto::dh_shared_secret_bytes(group_, private_value_, peer_public);
}

bool KeyManager::master_key_into(const Principal& peer, util::Bytes& out) {
  // One lock across lookup AND upcall: two shards racing on a cold peer
  // must not drive two upcalls (the daemon is single-threaded by design).
  std::lock_guard<std::mutex> lock(mu_);
  const util::Bytes* key = mkc_.lookup(peer.address);
  if (!key) {
    upcalls_.fetch_add(1, std::memory_order_relaxed);
    auto fresh = daemon_.upcall(peer);
    if (!fresh) return false;
    key = mkc_.insert(peer.address, std::move(*fresh));
  }
  out.assign(key->begin(), key->end());
  return true;
}

std::optional<util::Bytes> KeyManager::master_key(const Principal& peer) {
  util::Bytes key;
  if (!master_key_into(peer, key)) return std::nullopt;
  return key;
}

}  // namespace fbs::core
