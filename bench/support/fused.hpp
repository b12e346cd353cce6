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
// The engine seals in two passes, so this is a bench-only ablation.
#pragma once

#include <cstdint>

#include "crypto/des.hpp"
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

}  // namespace fbs::crypto
