// Single data-touching pass (Section 5.3): "An efficient implementation
// should try to combine all such data touching operation into a single
// pass. For example, if data confidentiality is desired, then the MAC
// computation and encryption should be rolled into one loop."
//
// This is that loop for the paper's default suite: the MD5 MAC absorbs each
// plaintext block in the same iteration that DES-CBC encrypts it, so the
// payload crosses the memory hierarchy once instead of twice. Results are
// bit-identical to running KeyedPrefixMac then encrypt() separately (the
// equivalence is unit-tested); the benefit is measured by fbs_bench_crypto.
#pragma once

#include <cstdint>
#include <span>

#include "crypto/batch.hpp"
#include "crypto/des.hpp"
#include "crypto/mac.hpp"
#include "util/bytes.hpp"

namespace fbs::crypto {

struct FusedResult {
  util::Bytes mac;         // MD5(mac_key | mac_prefix | body)
  util::Bytes ciphertext;  // DES-CBC(body) with PKCS#7 padding
};

/// One pass over `body`: keyed-MD5 MAC over the plaintext and DES-CBC
/// encryption with `iv`. `mac_prefix` is the header material (the caller's
/// flags|suite|confounder|timestamp) hashed between the key and the payload.
FusedResult fused_keyed_md5_des_cbc(const Des& des, std::uint64_t iv,
                                    util::BytesView mac_key,
                                    util::BytesView mac_prefix,
                                    util::BytesView body);

/// Allocation-free single pass over `body` for a per-flow context: `mac` is
/// a keyed MacContext (the key material that fused_keyed_md5_des_cbc
/// re-hashes per call is already absorbed into it), `mac_out` receives
/// mac.mac_size() bytes, and `ciphertext` is a reused caller buffer.
/// Bit-identical to the one-shot form when the contexts match.
void fused_seal_into(const Des& des, std::uint64_t iv, MacContext& mac,
                     util::BytesView mac_prefix, util::BytesView body,
                     std::uint8_t* mac_out, util::Bytes& ciphertext);

/// The receive-side single pass: DES-CBC decrypt and MAC the recovered
/// plaintext block by block while it is hot in cache. `body` is resized to
/// the unpadded plaintext and `mac_out` receives the tag the sender would
/// have produced (the caller compares it against the header's). Returns
/// false on malformed length or PKCS#7 padding.
bool fused_open_into(const Des& des, std::uint64_t iv, MacContext& mac,
                     util::BytesView mac_prefix, util::BytesView ciphertext,
                     std::uint8_t* mac_out, util::Bytes& body);

/// One datagram of a batch seal: the inputs of fused_seal_into. Jobs may
/// carry different keys.
struct FusedSealJob {
  const Des* des = nullptr;
  std::uint64_t iv = 0;
  MacContext* mac = nullptr;
  util::BytesView mac_prefix;
  util::BytesView body;
  std::uint8_t* mac_out = nullptr;   // receives mac->mac_size() bytes
  util::Bytes* ciphertext = nullptr; // resized to padded_size(body.size())
};

/// One datagram of a batch open. `ok` reports what fused_open_into returns:
/// false on malformed ciphertext length or bad PKCS#7 padding, in which
/// case `body` and `mac_out` are unspecified.
struct FusedOpenJob {
  const Des* des = nullptr;
  std::uint64_t iv = 0;
  MacContext* mac = nullptr;
  util::BytesView mac_prefix;
  util::BytesView ciphertext;
  std::uint8_t* mac_out = nullptr;
  util::Bytes* body = nullptr;
  bool ok = false;
};

/// Batch-aware forms of fused_seal_into/fused_open_into: the DES-CBC leg of
/// every job runs through the 256-lane bitsliced batch engine (cross-job for
/// open, job-per-lane for seal; `batch` decides scalar fallback for small
/// bursts), while each MAC stays per-datagram. Outputs are bit-identical,
/// job by job, to calling the _into forms in sequence -- the "fused" single
/// pass is traded for lane parallelism, which wins whenever the burst is
/// wide or the bodies are long. Any number of jobs; chunks of up to
/// CryptoBatch::kLanes are scheduled together. Allocation-free beyond the
/// callers' output buffers.
void fused_seal_batch(CryptoBatch& batch, std::span<FusedSealJob> jobs);
void fused_open_batch(CryptoBatch& batch, std::span<FusedOpenJob> jobs);

}  // namespace fbs::crypto
