// Basic host-pair keying (Section 2.2): the implicit pair-based master key
// directly encrypts traffic. No per-flow separation, no MAC -- which is why
// the paper notes it "can suffer from a cut-and-paste attack": ciphertext
// from one datagram can be spliced into another undetected, and compromise
// of the master key exposes ALL past and future traffic between the hosts.
// Implemented as the comparison baseline for the Section 6.1/7.4 claims and
// the attack tests.
#pragma once

#include <optional>

#include "crypto/des.hpp"
#include "fbs/keying.hpp"
#include "fbs/principal.hpp"
#include "util/rng.hpp"

namespace fbs::baselines {

/// The DES cipher a host-pair scheme keys straight from the master key
/// K_{S,D}: the first 8 bytes of MD5(K_{S,D}), hashed as FBS hashes its
/// flow keys. K_{S,D} is as long as the DH group's elements, which can be
/// shorter than a DES key.
crypto::Des master_key_des(util::BytesView master);

class HostPairProtocol {
 public:
  HostPairProtocol(core::Principal self, core::KeyManager& keys,
                   util::RandomSource& rng)
      : self_(std::move(self)), keys_(keys), iv_gen_(rng.next_u64()) {}

  /// wire = iv(8) || DES-CBC_{K_{S,D}}(body). Authentication: none.
  std::optional<util::Bytes> protect(const core::Datagram& d);
  std::optional<util::Bytes> unprotect(const core::Principal& source,
                                       util::BytesView wire);

 private:
  core::Principal self_;
  core::KeyManager& keys_;
  util::Lcg48 iv_gen_;
};

}  // namespace fbs::baselines
