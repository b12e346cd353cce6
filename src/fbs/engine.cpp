#include "fbs/engine.hpp"

#include <cassert>
#include <chrono>
#include <mutex>

#include "util/flow_hash.hpp"

namespace fbs::core {

namespace {

/// The MAC's non-payload input: flags byte, suite byte, 4-byte confounder,
/// 4-byte timestamp (Section 5.2 keys the MAC on Kf over confounder,
/// timestamp and payload; we additionally cover the flags and algorithm
/// bytes we carry, because neither participates in any other computation
/// when the body is plaintext -- fuzzing found that an on-path attacker
/// could rewrite the cipher nibble of a non-secret datagram and still have
/// it accepted). Writes kMacPrefixSize (domain.hpp) bytes.
void mac_prefix_into(std::uint8_t flags, std::uint8_t suite,
                     std::uint32_t confounder, std::uint32_t timestamp,
                     std::uint8_t out[kMacPrefixSize]) {
  out[0] = flags;
  out[1] = suite;
  for (int i = 0; i < 4; ++i) {
    out[2 + i] = static_cast<std::uint8_t>(confounder >> (24 - 8 * i));
    out[6 + i] = static_cast<std::uint8_t>(timestamp >> (24 - 8 * i));
  }
}

/// Section 7.2: the 32-bit confounder is duplicated into the 64-bit DES IV.
std::uint64_t confounder_iv(std::uint32_t confounder) {
  return static_cast<std::uint64_t>(confounder) << 32 | confounder;
}

/// Domain separation for the two shard-selection hash consumers. Send-side
/// shards key on the encoded FlowAttributes; receive-side shards key on
/// (source principal address, sfl) -- both are per-flow constants, so every
/// datagram of a flow lands on the same shard.
constexpr std::uint64_t kSendShardSeed = 0x5342'5353'454E'4421ull;
constexpr std::uint64_t kRecvShardSeed = 0x5342'5352'4543'5621ull;

void accumulate(SendStats& into, const SendStats& s) {
  into.datagrams += s.datagrams;
  into.encrypted += s.encrypted;
  into.flow_keys_derived += s.flow_keys_derived;
  into.key_unavailable += s.key_unavailable;
  into.lifetime_rekeys += s.lifetime_rekeys;
}

void accumulate(ReceiveStats& into, const ReceiveStats& s) {
  into.accepted += s.accepted;
  into.rejected_malformed += s.rejected_malformed;
  into.rejected_stale += s.rejected_stale;
  into.rejected_replay += s.rejected_replay;
  into.rejected_unknown_peer += s.rejected_unknown_peer;
  into.rejected_bad_mac += s.rejected_bad_mac;
  into.rejected_decrypt += s.rejected_decrypt;
  into.flow_keys_derived += s.flow_keys_derived;
  for (std::size_t i = 0; i < kReceiveErrorKinds; ++i)
    into.by_kind[i] += s.by_kind[i];
}

void accumulate(CacheStats& into, const CacheStats& s) {
  into.hits += s.hits;
  into.cold_misses += s.cold_misses;
  into.capacity_misses += s.capacity_misses;
  into.collision_misses += s.collision_misses;
}

void accumulate(FreshnessChecker::Stats& into,
                const FreshnessChecker::Stats& s) {
  into.fresh += s.fresh;
  into.stale += s.stale;
  into.replays += s.replays;
}

void accumulate(FamStats& into, const FamStats& s) {
  into.datagrams += s.datagrams;
  into.flows_created += s.flows_created;
  into.mapper_hits += s.mapper_hits;
  into.hash_evictions += s.hash_evictions;
  into.mapper_expirations += s.mapper_expirations;
  into.sweeper_expirations += s.sweeper_expirations;
}

/// Sum one per-domain stats struct across every domain, each read under its
/// domain's lock.
template <typename Stats, typename Get>
Stats sum_domains(const std::vector<std::unique_ptr<FlowDomain>>& domains,
                  Get get) {
  Stats total{};
  for (const auto& dom : domains) {
    std::lock_guard<std::mutex> lock(dom->mu);
    accumulate(total, get(*dom));
  }
  return total;
}

/// Keep, in order, the first `n` indices of `live` for which `keep` holds;
/// returns how many were kept. Each receive phase drops the datagrams it
/// rejects this way.
template <typename Keep>
std::size_t retain(std::size_t* live, std::size_t n, Keep keep) {
  std::size_t kept = 0;
  for (std::size_t k = 0; k < n; ++k)
    if (keep(live[k])) live[kept++] = live[k];
  return kept;
}

}  // namespace

const char* to_string(ReceiveError e) {
  switch (e) {
    case ReceiveError::kMalformed: return "malformed";
    case ReceiveError::kStale: return "stale";
    case ReceiveError::kReplay: return "replay";
    case ReceiveError::kUnknownPeer: return "unknown-peer";
    case ReceiveError::kBadMac: return "bad-mac";
    case ReceiveError::kDecryptFailed: return "decrypt-failed";
  }
  return "?";
}

FbsEndpoint::FbsEndpoint(Principal self, const FbsConfig& config,
                         KeyManager& keys, const util::Clock& clock,
                         util::RandomSource& rng)
    : self_(std::move(self)),
      config_(config),
      keys_(keys),
      clock_(clock),
      sfl_alloc_(rng) {
  config_.shards = config_.shards == 0 ? 1 : config_.shards;
  // The Section 7.2 merged FST+TFKC assumes the FST is the small
  // direct-mapped array; the budgeted megaflow table replaces both halves
  // of that bargain, so the split path is forced on.
  if (config_.max_flows_per_shard != 0) config_.combined_fst_tfkc = false;
  // Every Mac the receive path could consult, built once. Mac instances are
  // immutable (make_context is const) so all domains and workers share
  // these; the mutable per-flow MacContexts live in domain caches under the
  // domain lock.
  for (const auto alg :
       {crypto::MacAlgorithm::kKeyedMd5, crypto::MacAlgorithm::kHmacMd5,
        crypto::MacAlgorithm::kKeyedSha1, crypto::MacAlgorithm::kHmacSha1,
        crypto::MacAlgorithm::kNull}) {
    suite_macs_[static_cast<std::size_t>(alg)] = crypto::make_mac(alg);
  }
  domains_.reserve(config_.shards);
  for (std::size_t i = 0; i < config_.shards; ++i)
    domains_.push_back(std::make_unique<FlowDomain>(config_, clock_,
                                                    sfl_alloc_,
                                                    rng.next_u64()));
}

const crypto::Mac& FbsEndpoint::suite_mac(crypto::MacAlgorithm alg) const {
  const std::size_t idx = static_cast<std::size_t>(alg);
  assert(idx < suite_macs_.size() && suite_macs_[idx] != nullptr);
  return *suite_macs_[idx];
}

void FbsEndpoint::cache_key_into(Sfl sfl, const Principal& a,
                                 const Principal& b, util::Bytes& out) {
  // TFKC index is (sfl, D, S); RFKC is (sfl, S, D). Including the local
  // principal covers multi-homed hosts (footnote 7).
  out.clear();
  for (int i = 7; i >= 0; --i)
    out.push_back(static_cast<std::uint8_t>(sfl >> (8 * i)));
  out.insert(out.end(), a.address.begin(), a.address.end());
  out.insert(out.end(), b.address.begin(), b.address.end());
}

std::size_t FbsEndpoint::send_shard_of(const FlowAttributes& attrs) const {
  util::Bytes enc;
  attrs.encode_into(enc);
  return shard_index(util::flow_hash64(enc, kSendShardSeed));
}

std::size_t FbsEndpoint::recv_shard_of(const Principal& source,
                                       Sfl sfl) const {
  return shard_index(util::flow_hash_combine(
      util::flow_hash64(source.address, kRecvShardSeed), sfl));
}

std::size_t FbsEndpoint::recv_shard_of_wire(const Principal& source,
                                            util::BytesView wire) const {
  const auto header = FbsHeaderView::parse(wire);
  return recv_shard_of(source, header ? header->sfl : 0);
}

bool FbsEndpoint::key_worn_out(std::uint64_t datagrams, std::uint64_t bytes,
                               util::TimeUs created, util::TimeUs now) const {
  return (config_.rekey_after_datagrams &&
          datagrams >= config_.rekey_after_datagrams) ||
         (config_.rekey_after_bytes && bytes >= config_.rekey_after_bytes) ||
         (config_.rekey_after_age && now - created >= config_.rekey_after_age);
}

std::optional<std::pair<Sfl, FlowCryptoContext*>> FbsEndpoint::outgoing_flow(
    FlowDomain& dom, WorkContext& ctx, const Datagram& d) {
  const util::TimeUs now = clock_.now();

  if (config_.combined_fst_tfkc) {
    // Section 7.2 fast path: one CRC-32 probe resolves both the flow
    // mapping and the flow key; the sweeper is absorbed into the mapper.
    // ctx.attrs already holds the encoded attributes (the caller encoded
    // them to pick this domain).
    const std::size_t idx =
        cache_index(config_.cache_hash, ctx.attrs, dom.combined.size());
    CombinedFlowEntry& e = dom.combined[idx];
    if (e.valid && e.attrs == d.attrs &&
        !flow_expired(e.last, now, config_.flow_threshold)) {
      if (key_worn_out(e.datagrams, e.bytes, e.created, now)) {
        ++dom.send_stats.lifetime_rekeys;
        e.valid = false;  // retire the worn key; fall through to a new flow
      } else {
        e.last = now;
        ++e.datagrams;
        e.bytes += d.body.size();
        return std::make_pair(e.sfl, &e.ctx);
      }
    }
    if (!keys_.master_key_into(d.destination, ctx.master)) return std::nullopt;
    const Sfl sfl = sfl_alloc_.allocate();
    ++dom.send_stats.flow_keys_derived;
    auto derive_timer = dom.tracer.start(obs::Stage::kSendKeyDerive);
    e.ctx = make_flow_crypto_context(
        derive_flow_key(ctx.kdf_hash, sfl, ctx.master, self_, d.destination),
        config_.suite, suite_mac(config_.suite.mac));
    derive_timer.finish();
    e.valid = true;
    e.attrs = d.attrs;
    e.sfl = sfl;
    e.created = e.last = now;
    e.datagrams = 1;
    e.bytes = d.body.size();
    return std::make_pair(sfl, &e.ctx);
  }

  // Split path (Figures 4 and 6): FAM classification, then TFKC. The
  // lifetime policy module consults the FAM's entry and retires worn flows.
  if (const FlowStateEntry* entry = dom.policy->find(d.attrs);
      entry &&
      key_worn_out(entry->datagrams, entry->bytes, entry->created, now)) {
    ++dom.send_stats.lifetime_rekeys;
    dom.policy->expire_flow(d.attrs);
  }
  const MapResult mapping = dom.policy->map(d, now);
  cache_key_into(mapping.sfl, d.destination, self_, ctx.key);
  if (auto* cached = dom.tfkc.lookup(ctx.key))
    return std::make_pair(mapping.sfl, cached);
  if (!keys_.master_key_into(d.destination, ctx.master)) return std::nullopt;
  ++dom.send_stats.flow_keys_derived;
  auto derive_timer = dom.tracer.start(obs::Stage::kSendKeyDerive);
  FlowCryptoContext fctx = make_flow_crypto_context(
      derive_flow_key(ctx.kdf_hash, mapping.sfl, ctx.master, self_,
                      d.destination),
      config_.suite, suite_mac(config_.suite.mac));
  derive_timer.finish();
  return std::make_pair(mapping.sfl,
                        dom.tfkc.insert(ctx.key, std::move(fctx)));
}

bool FbsEndpoint::protect_into(WorkContext& ctx, const Datagram& d,
                               bool secret, util::Bytes& wire_out) {
  wire_out.clear();
  d.attrs.encode_into(ctx.attrs);
  FlowDomain& dom =
      *domains_[shard_index(util::flow_hash64(ctx.attrs, kSendShardSeed))];
  // One lock for the whole datagram: flow resolution, key wear-out
  // accounting, confounder draw, MAC/cipher (the per-flow MacContext is
  // mutable state), and stats all belong to this domain.
  std::lock_guard<std::mutex> lock(dom.mu);

  auto classify_timer = dom.tracer.start(obs::Stage::kSendClassify);
  const auto flow = outgoing_flow(dom, ctx, d);
  classify_timer.finish();
  if (!flow) {
    ++dom.send_stats.key_unavailable;
    return false;
  }
  const auto& [sfl, fctx] = *flow;

  FbsHeaderView header;
  header.suite = config_.suite;
  header.sfl = sfl;
  header.confounder = dom.confounder_gen.step32();
  header.timestamp_minutes = util::to_header_minutes(clock_.now());
  header.secret =
      secret && config_.suite.cipher != crypto::CipherAlgorithm::kNone;

  std::uint8_t prefix[kMacPrefixSize];
  mac_prefix_into(header.flags_byte(), header.suite_byte(),
                  header.confounder, header.timestamp_minutes, prefix);
  std::uint8_t mac_buf[kMaxMacSize];
  const std::size_t mac_n = fctx->mac.mac_size();

  // (S6) the MAC covers the plaintext body, then (S8-9) the body is
  // encrypted under the confounder IV.
  {
    auto mac_timer = dom.tracer.start(obs::Stage::kSendMac);
    fctx->mac.begin();
    fctx->mac.update({prefix, kMacPrefixSize});
    fctx->mac.update(d.body);
    fctx->mac.finish_into(mac_buf);
  }
  util::BytesView body = d.body;
  if (header.secret) {
    auto cipher_timer = dom.tracer.start(obs::Stage::kSendCipher);
    const auto mode = *crypto::cipher_mode(config_.suite.cipher);
    const std::uint64_t iv = confounder_iv(header.confounder);
    if (fctx->des3)
      crypto::encrypt_into(*fctx->des3, mode, iv, d.body, ctx.body);
    else
      crypto::encrypt_into(*fctx->des, mode, iv, d.body, ctx.body);
    body = ctx.body;
    ++dom.send_stats.encrypted;
  }
  header.mac = {mac_buf, mac_n};

  ++dom.send_stats.datagrams;
  auto wire_timer = dom.tracer.start(obs::Stage::kSendWire);
  wire_out.reserve(FbsHeader::kFixedSize + mac_n + body.size());
  header.serialize_into(wire_out);
  wire_out.insert(wire_out.end(), body.begin(), body.end());
  return true;
}

std::optional<util::Bytes> FbsEndpoint::protect(const Datagram& d,
                                                bool secret) {
  util::Bytes wire;
  if (!protect_into(default_ctx_, d, secret, wire)) return std::nullopt;
  return wire;
}

ReceiveError FbsEndpoint::reject(FlowDomain& dom, ReceiveError e) {
  ReceiveStats& rs = dom.receive_stats;
  ++rs.by_kind[static_cast<std::size_t>(e)];
  switch (e) {
    case ReceiveError::kMalformed: ++rs.rejected_malformed; break;
    case ReceiveError::kStale: ++rs.rejected_stale; break;
    case ReceiveError::kReplay: ++rs.rejected_replay; break;
    case ReceiveError::kUnknownPeer: ++rs.rejected_unknown_peer; break;
    case ReceiveError::kBadMac: ++rs.rejected_bad_mac; break;
    case ReceiveError::kDecryptFailed: ++rs.rejected_decrypt; break;
  }
  return e;
}

ReceiveIntoOutcome FbsEndpoint::unprotect_into(WorkContext& ctx,
                                               const Principal& source,
                                               util::BytesView wire,
                                               util::Bytes& body_out) {
  ReceiveBurstItem item{&source, wire, &body_out};
  unprotect_burst_into(ctx, {&item, 1});
  return item.outcome;
}

void FbsEndpoint::unprotect_burst_into(WorkContext& ctx,
                                       std::span<ReceiveBurstItem> items) {
  for (std::size_t off = 0; off < items.size(); off += kBurstChunk)
    unprotect_burst_chunk(
        ctx, items.subspan(off, std::min(kBurstChunk, items.size() - off)));
}

void FbsEndpoint::unprotect_burst_chunk(WorkContext& ctx,
                                        std::span<ReceiveBurstItem> items) {
  const std::size_t n = items.size();
  if (ctx.recv_slots.size() < n) {
    ctx.recv_slots.resize(n);
    ctx.open_jobs.resize(n);
    ctx.mac_jobs.resize(n);
  }
  auto& slot = ctx.recv_slots;
  // Parse before taking any lock: it reads only the wire, and the sfl it
  // yields picks the owning domain. Unparseable wires carry no sfl; they
  // land on the source's sfl-0 domain purely so the malformed rejection is
  // counted somewhere deterministic. Parse durations are recorded under the
  // domain lock (tracer recorders are domain state).
  const bool tracing = config_.trace_stages;
  for (std::size_t i = 0; i < n; ++i) {
    std::chrono::steady_clock::time_point parse_start;
    if (tracing) parse_start = std::chrono::steady_clock::now();
    WorkContext::ReceiveSlot& s = slot[i];
    s.header = FbsHeaderView::parse(items[i].wire);
    s.parse_ns =
        tracing ? static_cast<double>(
                      std::chrono::duration_cast<std::chrono::nanoseconds>(
                          std::chrono::steady_clock::now() - parse_start)
                          .count())
                : 0;
    s.shard = recv_shard_of(*items[i].source, s.header ? s.header->sfl : 0);
    s.grouped = false;
    s.batched = false;
    s.fctx = nullptr;
  }

  for (std::size_t first = 0; first < n; ++first) {
    if (slot[first].grouped) continue;
    FlowDomain& dom = *domains_[slot[first].shard];
    // One critical section for the whole same-shard group (the pipeline
    // feeds whole bursts from one shard's ring, so this is normally one
    // lock per burst): the freshness check and the post-verification commit
    // execute atomically with respect to any other datagram of these flows,
    // so a duplicate racing in from another worker cannot slip between.
    std::lock_guard<std::mutex> lock(dom.mu);

    // Admit. The header's algorithm field is attacker-controlled, and the
    // NOP suite's "MAC" is a public constant: honoring a wire-chosen kNull
    // suite would let anyone forge datagrams carrying sixteen zero bytes as
    // the tag, so only an endpoint configured for NOP measurement runs may
    // accept it. (R3-4) freshness before any cryptography: stale datagrams
    // cost nothing. The check is read-only; the seen-MAC cache is only
    // committed to after the MAC verifies, so a forged body cannot poison
    // it (see replay.hpp).
    std::size_t live[kBurstChunk] = {};
    std::size_t nlive = 0;
    for (std::size_t j = first; j < n; ++j) {
      WorkContext::ReceiveSlot& s = slot[j];
      if (s.grouped || s.shard != slot[first].shard) continue;
      s.grouped = true;
      if (tracing) dom.tracer.record(obs::Stage::kRecvParse, s.parse_ns);
      if (!s.header || (s.header->suite.mac == crypto::MacAlgorithm::kNull &&
                        config_.suite.mac != crypto::MacAlgorithm::kNull)) {
        items[j].outcome = reject(dom, ReceiveError::kMalformed);
        continue;
      }
      auto fresh_timer = dom.tracer.start(obs::Stage::kRecvFreshness);
      const auto verdict =
          dom.freshness.check(s.header->timestamp_minutes, s.header->mac);
      fresh_timer.finish();
      if (verdict == FreshnessChecker::Verdict::kFresh)
        live[nlive++] = j;
      else
        items[j].outcome =
            reject(dom, verdict == FreshnessChecker::Verdict::kStale
                            ? ReceiveError::kStale
                            : ReceiveError::kReplay);
    }

    // (R5-6) recover each flow's crypto context (RFKC-cached: a hit returns
    // the ready DES schedule and keyed MAC state). Every RFKC insert of the
    // group happens first. An insert may evict or move the entries earlier
    // datagrams resolved to, so datagrams before the group's last insert
    // re-take their pointer by a peek, which cannot evict; from then on the
    // pointers stay valid to the end of the group. A context that is gone
    // (set collision) is rebuilt into ctx.rebuilt for this group alone, and
    // so is one whose suite differs from the datagram's header: the suite
    // byte is not yet authenticated, so it never changes a cached context.
    // A rebuild starts from the flow key the first pass kept in the slot,
    // so every datagram derives (and counts) at most one key, as it would
    // arriving alone. derive() makes a flow key from the master key
    // (counted); nullopt rejects the datagram as from an unknown peer.
    const auto derive = [&](std::size_t j) -> std::optional<FlowKey> {
      if (!keys_.master_key_into(*items[j].source, ctx.master)) {
        items[j].outcome = reject(dom, ReceiveError::kUnknownPeer);
        return std::nullopt;
      }
      ++dom.receive_stats.flow_keys_derived;
      return derive_flow_key(ctx.kdf_hash, slot[j].header->sfl, ctx.master,
                             *items[j].source, self_);
    };
    std::size_t pos = 0;
    std::size_t first_valid = 0;  // live position of the last insert
    nlive = retain(live, nlive, [&](std::size_t j) {
      const FbsHeaderView& h = *slot[j].header;
      auto key_timer = dom.tracer.start(obs::Stage::kRecvKey);
      cache_key_into(h.sfl, *items[j].source, self_, ctx.key);
      if (auto* cached = dom.rfkc.lookup(ctx.key)) {
        slot[j].fctx = cached;
        slot[j].key = cached->key;
        ++pos;
        return true;
      }
      const auto key = derive(j);
      if (!key) return false;
      slot[j].key = *key;
      slot[j].fctx = dom.rfkc.insert(
          ctx.key,
          make_flow_crypto_context(*key, h.suite, suite_mac(h.suite.mac)));
      first_valid = pos++;
      return true;
    });
    pos = 0;
    nlive = retain(live, nlive, [&](std::size_t j) {
      const FbsHeaderView& h = *slot[j].header;
      FlowCryptoContext*& fctx = slot[j].fctx;
      if (pos++ < first_valid) {
        cache_key_into(h.sfl, *items[j].source, self_, ctx.key);
        fctx = const_cast<FlowCryptoContext*>(dom.rfkc.peek(ctx.key));
      }
      if (fctx && fctx->suite == h.suite) return true;
      auto key_timer = dom.tracer.start(obs::Stage::kRecvKey);
      ctx.rebuilt.reserve(kBurstChunk);
      fctx = &ctx.rebuilt.emplace_back(make_flow_crypto_context(
          slot[j].key, h.suite, suite_mac(h.suite.mac)));
      return true;
    });

    // (R10-11, first for secret datagrams -- see the header-comment
    // deviation note) recover the plaintext the MAC was computed over.
    // DES-CBC bodies of whole blocks are gathered into one cross-datagram
    // open_cbc (bitsliced, per-lane keys; small bursts run its scalar core);
    // every other cipher decrypts inline and plaintext bodies are copied.
    std::size_t njob = 0;
    nlive = retain(live, nlive, [&](std::size_t j) {
      WorkContext::ReceiveSlot& s = slot[j];
      const FbsHeaderView& h = *s.header;
      const FlowCryptoContext& f = *s.fctx;
      util::Bytes& body = *items[j].body_out;
      if (!h.secret) {
        body.assign(h.body.begin(), h.body.end());
        return true;
      }
      const auto mode = crypto::cipher_mode(h.suite.cipher);
      if (!mode || (!f.des && !f.des3)) {
        items[j].outcome = reject(dom, ReceiveError::kMalformed);
        return false;
      }
      const std::uint64_t iv = confounder_iv(h.confounder);
      if (config_.bitslice_crypto && f.des &&
          h.suite.cipher == crypto::CipherAlgorithm::kDesCbc &&
          !h.body.empty() && h.body.size() % crypto::Des::kBlockSize == 0) {
        body.resize(h.body.size());
        ctx.open_jobs[njob++] =
            crypto::CbcOpenJob{&*f.des, iv, h.body, body.data()};
        s.batched = true;
        return true;
      }
      auto cipher_timer = dom.tracer.start(obs::Stage::kRecvCipher);
      const bool ok =
          f.des3 ? crypto::decrypt_into(*f.des3, *mode, iv, h.body, body)
                 : crypto::decrypt_into(*f.des, *mode, iv, h.body, body);
      if (!ok) items[j].outcome = reject(dom, ReceiveError::kDecryptFailed);
      return ok;
    });
    if (njob > 0) {
      auto batch_timer = dom.tracer.start(obs::Stage::kRecvBatchCrypto);
      ctx.batch.open_cbc({ctx.open_jobs.data(), njob});
    }

    // (R7-9) in three passes. First the padding check of batched bodies,
    // and one MAC job per datagram over flags | suite | confounder |
    // timestamp | plaintext body; then one MacBatch over the group (MD5
    // jobs share 8-lane passes); then, in submission order, the constant
    // time compare and the replay commit. Every header bit is either
    // authenticated here or validated by parse (version, reserved flags) or
    // by key selection (sfl).
    std::size_t nmac = 0;
    nlive = retain(live, nlive, [&](std::size_t j) {
      WorkContext::ReceiveSlot& s = slot[j];
      util::Bytes& body = *items[j].body_out;
      if (s.batched && !crypto::detail::pkcs7_unpad_in_place(body)) {
        items[j].outcome = reject(dom, ReceiveError::kDecryptFailed);
        return false;
      }
      const FbsHeaderView& h = *s.header;
      mac_prefix_into(h.flags_byte(), h.suite_byte(), h.confounder,
                      h.timestamp_minutes, s.mac_prefix.data());
      ctx.mac_jobs[nmac++] =
          crypto::MacJob{&s.fctx->mac, s.mac_prefix, body, s.tag.data()};
      return true;
    });
    if (nmac > 0) {
      auto mac_timer = dom.tracer.start(obs::Stage::kRecvMac);
      ctx.mac_batch.compute({ctx.mac_jobs.data(), nmac});
    }
    for (std::size_t k = 0; k < nlive; ++k) {
      const std::size_t j = live[k];
      ReceiveBurstItem& it = items[j];
      const FbsHeaderView& h = *slot[j].header;
      if (!util::ct_equal({slot[j].tag.data(), slot[j].fctx->mac.mac_size()},
                          h.mac)) {
        it.outcome = reject(dom, ReceiveError::kBadMac);
        continue;
      }
      // Every datagram of this group passed check() before any committed;
      // the non-counting probe catches the second copy of an intra-burst
      // duplicate before it can double-commit.
      if (dom.freshness.seen(h.timestamp_minutes, h.mac)) {
        it.outcome = reject(dom, ReceiveError::kReplay);
        continue;
      }
      dom.freshness.commit(h.timestamp_minutes, h.mac);
      ++dom.receive_stats.accepted;
      it.outcome = ReceivedInfo{h.sfl, h.secret, h.suite};
    }
    ctx.rebuilt.clear();
  }
}

ReceiveOutcome FbsEndpoint::unprotect(const Principal& source,
                                      util::BytesView wire) {
  util::Bytes body;
  const ReceiveIntoOutcome outcome =
      unprotect_into(default_ctx_, source, wire, body);
  if (const auto* err = std::get_if<ReceiveError>(&outcome)) return *err;
  const auto& info = std::get<ReceivedInfo>(outcome);
  ReceivedDatagram out;
  out.datagram.source = source;
  out.datagram.destination = self_;
  out.datagram.body = std::move(body);
  out.sfl = info.sfl;
  out.was_secret = info.was_secret;
  out.suite = info.suite;
  return out;
}

void FbsEndpoint::rekey(const FlowAttributes& attrs) {
  FlowDomain& dom = *domains_[send_shard_of(attrs)];
  std::lock_guard<std::mutex> lock(dom.mu);
  if (config_.combined_fst_tfkc) {
    const std::size_t idx =
        cache_index(config_.cache_hash, attrs.encode(), dom.combined.size());
    CombinedFlowEntry& e = dom.combined[idx];
    if (e.valid && e.attrs == attrs) e.valid = false;
    return;
  }
  // Split mode: terminate the flow in the FAM; the next datagram maps to a
  // fresh sfl, whose key misses in the TFKC and is derived anew.
  dom.policy->expire_flow(attrs);
}

std::size_t FbsEndpoint::sweep() {
  const util::TimeUs now = clock_.now();
  std::size_t expired = 0;
  for (const auto& dom : domains_) {
    std::lock_guard<std::mutex> lock(dom->mu);
    expired += dom->policy->sweep(now);
  }
  return expired;
}

void FbsEndpoint::clear_soft_state() {
  for (const auto& dom : domains_) {
    std::lock_guard<std::mutex> lock(dom->mu);
    for (CombinedFlowEntry& e : dom->combined) e.valid = false;
    dom->tfkc.clear();
    dom->rfkc.clear();
    dom->policy->clear();
    // A restarted receiver has no memory of recently seen MACs; the strict
    // replay extension degrades to the paper's window-only check (its design
    // guarantee: losing the cache is never worse than not having it).
    dom->freshness.clear();
  }
}

SendStats FbsEndpoint::send_stats() const {
  return sum_domains<SendStats>(
      domains_, [](const FlowDomain& d) { return d.send_stats; });
}

ReceiveStats FbsEndpoint::receive_stats() const {
  return sum_domains<ReceiveStats>(
      domains_, [](const FlowDomain& d) { return d.receive_stats; });
}

CacheStats FbsEndpoint::tfkc_stats() const {
  return sum_domains<CacheStats>(
      domains_, [](const FlowDomain& d) { return d.tfkc.stats(); });
}

CacheStats FbsEndpoint::rfkc_stats() const {
  return sum_domains<CacheStats>(
      domains_, [](const FlowDomain& d) { return d.rfkc.stats(); });
}

FreshnessChecker::Stats FbsEndpoint::freshness_stats() const {
  return sum_domains<FreshnessChecker::Stats>(
      domains_, [](const FlowDomain& d) { return d.freshness.stats(); });
}

FamStats FbsEndpoint::fam_stats() const {
  return sum_domains<FamStats>(
      domains_, [](const FlowDomain& d) { return d.policy->stats(); });
}

std::optional<MegaflowStats> FbsEndpoint::megaflow_stats() const {
  std::optional<MegaflowStats> total;
  for (const auto& dom : domains_) {
    std::lock_guard<std::mutex> lock(dom->mu);
    const MegaflowStats* m = dom->policy->mega_stats();
    if (!m) continue;
    MegaflowStats& t = total ? *total : total.emplace();
    t.budget_evictions += m->budget_evictions;
    t.wheel_cascades += m->wheel_cascades;
    t.wheel_fires += m->wheel_fires;
    t.sweep_touched += m->sweep_touched;
    t.map_rehashes += m->map_rehashes;
    t.slab_grows += m->slab_grows;
    t.live_flows += m->live_flows;
    t.peak_live_flows += m->peak_live_flows;
    t.map_load_factor = std::max(t.map_load_factor, m->map_load_factor);
    t.resident_bytes += m->resident_bytes;
  }
  return total;
}

}  // namespace fbs::core
