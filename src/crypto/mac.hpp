// Message authentication codes.
//
// The paper's header MAC (Section 5.2) is the keyed-prefix construction
//     HMAC(Kf | confounder | timestamp | payload)
// with "HMAC" meaning "some one-way cryptographic hash function" -- i.e.
// keyed MD5 in the 1997 implementation (Section 7.2). We provide that
// construction (KeyedPrefixMac) plus the modern RFC 2104 HMAC as an
// alternative algorithm selectable through the header's algorithm field.
//
// MacBatch computes many tags at once. MD5 jobs (keyed prefix and HMAC) run
// on the 8-lane Md5x8 core: each lane starts from its context's saved MD5
// state, blocks are read straight from the message body, and only the head
// block (saved bytes, prefix, first body bytes) and the padded tail are
// assembled on the stack. SHA-1 and null jobs, and batches with too few MD5
// jobs to fill the lanes, run on the scalar contexts.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <span>
#include <variant>

#include "crypto/hash.hpp"
#include "crypto/md5.hpp"
#include "crypto/sha1.hpp"
#include "util/bytes.hpp"

namespace fbs::crypto {

/// A hash state held by value: one of the library's two hashes. MAC
/// contexts keep their precomputed states in these.
using HashState = std::variant<Md5, Sha1>;

/// A MAC bound to one key: the streaming interface the datagram fast path
/// uses. Construction does the per-key work once (hashing overlong keys,
/// absorbing the HMAC pads); after that, each message costs one
/// begin()/update().../finish_into() cycle. Cached per flow alongside the
/// Des key schedule. The hash states live inline, so building, moving and
/// destroying a context never touches the heap -- a flow-key miss builds
/// one. Default-constructed, it is the null MAC with an empty tag.
class MacContext {
 public:
  std::size_t mac_size() const { return size_; }
  /// Start a new message; discards any partial state.
  void begin();
  void update(util::BytesView chunk);
  /// Finish into a caller-provided buffer of mac_size() bytes.
  void finish_into(std::uint8_t* out);

  /// Allocating convenience wrapper.
  util::Bytes finish() {
    util::Bytes tag(mac_size());
    finish_into(tag.data());
    return tag;
  }

 private:
  friend class KeyedPrefixMac;
  friend class HmacMac;
  friend class NullMac;
  friend class MacBatch;
  enum class Kind : std::uint8_t { kNull, kKeyedPrefix, kHmac };

  Kind kind_ = Kind::kNull;
  std::size_t size_ = 0;
  HashState start_;  // keyed prefix: H after the key; HMAC: after K ^ ipad
  HashState outer_;  // HMAC only: H after K ^ opad
  HashState work_;
};

/// One message for MacBatch: `tag` receives mac->mac_size() bytes of the
/// tag over prefix | body under `mac`'s key. Lane jobs only read `mac`;
/// scalar ones run it, so jobs sharing a context are computed in turn.
struct MacJob {
  MacContext* mac = nullptr;
  util::BytesView prefix;
  util::BytesView body;
  std::uint8_t* tag = nullptr;
};

/// Tags for a batch of messages, eight MD5 messages per compression pass.
/// Lengths may differ freely: a lane that finishes its message refills with
/// the next MD5 job, and an HMAC lane runs its outer hash before it does.
/// Needs no heap memory and no per-thread state; all lane scratch is on the
/// stack of compute().
class MacBatch {
 public:
  static constexpr std::size_t kLanes = Md5x8::kLanes;
  /// A batch with fewer MD5 jobs than this runs every job on the scalar
  /// contexts. A pass costs the same however many lanes are lit; measured
  /// at 64-1408 B, one job runs ~1.3x slower on the lanes than scalar and
  /// two run ~1.2-1.6x faster.
  static constexpr std::size_t kMinLaneJobs = 2;

  void compute(std::span<const MacJob> jobs);

  /// Counters for tests (cumulative).
  struct Stats {
    std::uint64_t lane_jobs = 0;    // messages hashed on Md5x8 lanes
    std::uint64_t scalar_jobs = 0;  // messages on the scalar contexts
    std::uint64_t passes = 0;       // Md5x8::compress calls
  };
  const Stats& stats() const { return stats_; }

 private:
  /// Whether a job runs on the lanes: keyed-prefix or HMAC MD5.
  static bool on_lanes(const MacJob& job);
  void compute_lanes(std::span<const MacJob> jobs);

  Stats stats_;
};

/// Common interface: a MAC over (key, message chunks).
class Mac {
 public:
  virtual ~Mac() = default;
  virtual std::size_t mac_size() const = 0;
  /// Bind this MAC to `key`, doing all per-key precomputation up front.
  virtual MacContext make_context(util::BytesView key) const = 0;

  /// Compute the tag over the concatenation of `chunks`.
  util::Bytes compute(util::BytesView key,
                      std::initializer_list<util::BytesView> chunks) const;
};

/// The paper's construction: tag = H(key | chunk_0 | chunk_1 | ...).
/// Vulnerable to length extension in general; acceptable here because the
/// protocol never exposes intermediate hashes and the message layout is
/// fixed -- but see HmacMac for the robust choice. `hash` must be an Md5 or
/// a Sha1, the hashes a MacContext can hold.
class KeyedPrefixMac final : public Mac {
 public:
  explicit KeyedPrefixMac(std::unique_ptr<Hash> hash);

  std::size_t mac_size() const override;
  MacContext make_context(util::BytesView key) const override;

 private:
  HashState hash_;
};

/// RFC 2104 HMAC over MD5 or SHA-1.
class HmacMac final : public Mac {
 public:
  explicit HmacMac(std::unique_ptr<Hash> hash);

  std::size_t mac_size() const override;
  MacContext make_context(util::BytesView key) const override;

 private:
  HashState hash_;
};

/// The "nullified" MAC of the paper's FBS NOP measurement configuration
/// (Section 7.3): returns immediately with a constant tag. Exists so the
/// Figure 8 bench can separate protocol overhead from cryptography cost.
class NullMac final : public Mac {
 public:
  explicit NullMac(std::size_t size = 16) : size_(size) {}
  std::size_t mac_size() const override { return size_; }
  MacContext make_context(util::BytesView key) const override;

 private:
  std::size_t size_;
};

/// Convenience one-shots.
util::Bytes hmac(Hash& hash, util::BytesView key, util::BytesView message);
util::Bytes hmac_md5(util::BytesView key, util::BytesView message);
util::Bytes hmac_sha1(util::BytesView key, util::BytesView message);

}  // namespace fbs::crypto
