// IPv4 fragmentation and reassembly.
//
// The 4.4BSD output path the paper hooks into is: (1) options/route,
// (2) fragmentation, (3) interface transmit -- with FBSSend() between (1)
// and (2) so FBS "receives the benefits of IP fragmentation and reassembly"
// (Section 7.2). This module is step (2) on the send side and the
// post-receive reassembly queue on the input side.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "net/ip.hpp"
#include "util/clock.hpp"

namespace fbs::net {

/// Whether a payload of `payload_size` bytes under `header` can leave on
/// an `mtu`-byte link: it fits, or it may and can be fragmented. fragment()
/// returns no packets exactly when this is false.
bool fits_mtu(const Ipv4Header& header, std::size_t payload_size,
              std::size_t mtu);

/// Split (header, payload) into wire packets that fit `mtu` bytes each.
/// Returns an empty vector if the payload needs fragmenting but the header
/// has DF set (the caller should count this as a drop). A payload that fits
/// yields exactly one packet.
std::vector<util::Bytes> fragment(const Ipv4Header& header,
                                  util::BytesView payload, std::size_t mtu);

/// Reassembly queue keyed by (source, destination, id, protocol), with the
/// classic timer that discards incomplete datagrams.
class Reassembler {
 public:
  /// Largest payload any fragment set may describe: a 16-bit total_length
  /// minus the option-free header. Fragments reaching past this are forged
  /// or corrupted and are rejected before they touch reassembly state.
  static constexpr std::size_t kMaxReassembledPayload =
      0xFFFF - Ipv4Header::kSize;
  /// Hard cap on stored pieces per datagram. A full-size datagram
  /// fragmented at the RFC 791 minimum MTU of 68 arrives in at most
  /// ceil(65515 / 48) = 1366 pieces; anything past this cap is a flood
  /// aimed at reassembly memory and the O(pieces) duplicate scan, and
  /// drops the whole partial datagram.
  static constexpr std::size_t kMaxPieces = 2048;

  explicit Reassembler(const util::Clock& clock,
                       util::TimeUs timeout = util::seconds(30))
      : clock_(clock), timeout_(timeout) {}

  /// Feed one received fragment (or whole datagram). Returns the completed
  /// datagram payload + header once all pieces are present.
  std::optional<Ipv4Packet> push(const Ipv4Header& header,
                                         util::Bytes payload);

  /// Drop timed-out partial datagrams; returns how many were discarded.
  std::size_t expire();

  std::size_t pending() const { return partial_.size(); }

 private:
  struct Key {
    std::uint32_t src;
    std::uint32_t dst;
    std::uint16_t id;
    std::uint8_t proto;
    auto operator<=>(const Key&) const = default;
  };
  struct Piece {
    // Byte offsets go up to 8 * 8191 = 65528 and intermediate sums exceed
    // 16 bits, so keep the arithmetic in std::size_t.
    std::size_t offset_bytes;
    util::Bytes data;
  };
  struct Partial {
    std::vector<Piece> pieces;
    std::optional<std::size_t> total_size;  // known once the last frag arrives
    Ipv4Header first_header;
    util::TimeUs arrival;
  };

  const util::Clock& clock_;
  util::TimeUs timeout_;
  std::map<Key, Partial> partial_;
};

}  // namespace fbs::net
