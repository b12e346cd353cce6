// The security flow header (Figure 2), with the field sizes of the paper's
// IP implementation (Section 7.2): sfl 64 bits, confounder 32 bits,
// timestamp 32 bits (minutes since 00:00 GMT 1996-01-01), MAC 128 bits for
// MD5 suites (160 for SHS suites). We additionally carry the one-byte
// algorithm identification field Section 5.2 calls for but leaves out, plus
// a flags byte recording whether the body is encrypted.
#pragma once

#include <cstdint>
#include <optional>

#include "crypto/algorithms.hpp"
#include "fbs/principal.hpp"
#include "util/bytes.hpp"

namespace fbs::core {

/// The one header type, a non-owning view: after parse(), `mac` and `body`
/// alias the wire buffer, which must outlive the view. The send path fills
/// the fields (`mac` viewing its tag) and writes them with serialize_into.
struct FbsHeaderView {
  /// Fixed part: flags(1) + suite(1) + sfl(8) + confounder(4) + timestamp(4).
  static constexpr std::size_t kFixedSize = 18;

  Sfl sfl = 0;
  std::uint32_t confounder = 0;
  std::uint32_t timestamp_minutes = 0;
  util::BytesView mac;  // size determined by the suite's MAC algorithm
  crypto::AlgorithmSuite suite;
  bool secret = false;   // body is encrypted
  util::BytesView body;  // remainder of the wire after the header

  /// Parse the header off the front of `wire`; `body` is the (possibly
  /// encrypted) datagram body that follows. nullopt on truncation, an
  /// unknown algorithm suite, a wrong version or a set reserved flag bit.
  static std::optional<FbsHeaderView> parse(util::BytesView wire);

  /// Wire overhead of a header using `suite` (for tcp_output-style sizing).
  static std::size_t overhead(crypto::AlgorithmSuite suite);

  /// The wire flags byte (version nibble + secret bit; reserved bits are
  /// always zero -- parse rejects anything else). Together with the suite
  /// byte this is part of the MAC input: every header bit an attacker can
  /// flip is either MAC-covered or independently validated.
  std::uint8_t flags_byte() const;
  std::uint8_t suite_byte() const { return crypto::encode_suite(suite); }

  /// Append the serialized header (fixed fields then MAC; `body` is NOT
  /// written) to `out`, reusing its capacity.
  void serialize_into(util::Bytes& out) const;
};

}  // namespace fbs::core
