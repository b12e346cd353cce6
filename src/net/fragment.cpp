#include "net/fragment.hpp"

#include <algorithm>

namespace fbs::net {

bool fits_mtu(const Ipv4Header& header, std::size_t payload_size,
              std::size_t mtu) {
  const std::size_t hlen = header.header_size();
  if (hlen + payload_size <= mtu) return true;
  // Needs fragmenting: not with DF set, nor when the link cannot carry one
  // 8-byte fragment unit (per-fragment payloads are multiples of 8).
  return !header.dont_fragment && mtu > hlen && (mtu - hlen) / 8 > 0;
}

std::vector<util::Bytes> fragment(const Ipv4Header& header,
                                  util::BytesView payload, std::size_t mtu) {
  std::vector<util::Bytes> out;
  const std::size_t hlen = header.header_size();
  if (hlen + payload.size() <= mtu) {
    out.push_back(header.serialize(payload));
    return out;
  }
  if (!fits_mtu(header, payload.size(), mtu)) return out;
  const std::size_t max_data = (mtu - hlen) / 8 * 8;

  std::size_t off = 0;
  while (off < payload.size()) {
    const std::size_t n = std::min(max_data, payload.size() - off);
    Ipv4Header fh = header;
    fh.fragment_offset = static_cast<std::uint16_t>(off / 8);
    fh.more_fragments = off + n < payload.size();
    out.push_back(fh.serialize(payload.subspan(off, n)));
    off += n;
  }
  return out;
}

std::optional<Ipv4Packet> Reassembler::push(const Ipv4Header& header,
                                                    util::Bytes payload) {
  if (!header.more_fragments && header.fragment_offset == 0) {
    // Unfragmented datagram: pass straight through.
    return Ipv4Packet{header, std::move(payload)};
  }

  // Widened before scaling: the 13-bit wire offset reaches 8191, so byte
  // offsets go up to 65528 and would wrap in 16-bit arithmetic.
  const std::size_t offset_bytes =
      static_cast<std::size_t>(header.fragment_offset) * 8;

  // Reject impossible fragments before they create or touch any state:
  // a non-final fragment whose payload is not a multiple of the 8-byte
  // offset unit cannot be followed contiguously (RFC 791), and no set of
  // fragments may describe a datagram larger than total_length can express.
  if (header.more_fragments && payload.size() % 8 != 0) return std::nullopt;
  if (offset_bytes + payload.size() > kMaxReassembledPayload)
    return std::nullopt;

  const Key key{header.source.value, header.destination.value, header.id,
                header.protocol};
  Partial& p = partial_[key];
  if (p.pieces.empty()) {
    p.arrival = clock_.now();
    p.first_header = header;
  }
  if (header.fragment_offset == 0) p.first_header = header;

  // Duplicate fragments (datagram services may duplicate) are ignored.
  const bool dup = std::any_of(
      p.pieces.begin(), p.pieces.end(),
      [&](const Piece& piece) { return piece.offset_bytes == offset_bytes; });
  if (!dup) {
    // A flood of distinct offsets far past what any real MTU produces can
    // only be an attack on reassembly memory and on the O(pieces)
    // duplicate scan; drop the whole datagram deterministically.
    if (p.pieces.size() >= kMaxPieces) {
      partial_.erase(key);
      return std::nullopt;
    }
    // First last-fragment wins: a later "last" fragment claiming a
    // different total (e.g. a forged short one) cannot shrink or grow an
    // already-announced datagram size.
    if (!header.more_fragments && !p.total_size)
      p.total_size = offset_bytes + payload.size();
    p.pieces.push_back(Piece{offset_bytes, std::move(payload)});
  }

  if (!p.total_size) return std::nullopt;

  // Complete iff [0, total_size) is covered. Overlapping fragments are
  // legal in IPv4 (retransmission through a different path can re-split),
  // so a piece starting at or before the covered watermark extends it;
  // only a piece starting beyond it leaves a hole.
  std::sort(p.pieces.begin(), p.pieces.end(),
            [](const Piece& a, const Piece& b) {
              return a.offset_bytes < b.offset_bytes;
            });
  std::size_t covered = 0;
  for (const Piece& piece : p.pieces) {
    if (piece.offset_bytes > covered) return std::nullopt;  // hole
    covered = std::max(covered, piece.offset_bytes + piece.data.size());
  }
  if (covered > *p.total_size) {
    // Coverage exceeds the announced size: fragments are inconsistent
    // (forged or corrupted). Reject the whole datagram deterministically
    // instead of stalling it until the reassembly timer fires.
    partial_.erase(key);
    return std::nullopt;
  }
  if (covered < *p.total_size) return std::nullopt;
  if (p.first_header.header_size() + covered > 0xFFFF) {
    // A first fragment with options can push the reassembled datagram past
    // what a 16-bit total_length expresses; such a set is unrepresentable.
    partial_.erase(key);
    return std::nullopt;
  }

  // Assemble in offset order, trimming overlap: where two fragments cover
  // the same bytes, the earlier-offset fragment's copy wins.
  Ipv4Packet done;
  done.header = p.first_header;
  done.header.more_fragments = false;
  done.header.fragment_offset = 0;
  // The carried-over total_length is the *first fragment's*, a lie about
  // the reassembled datagram; recompute it (the kMaxReassembledPayload
  // bound above keeps header + payload within the 16-bit field).
  done.header.total_length =
      static_cast<std::uint16_t>(done.header.header_size() + covered);
  done.payload.reserve(covered);
  for (const Piece& piece : p.pieces) {
    const std::size_t end = done.payload.size();
    if (piece.offset_bytes + piece.data.size() <= end) continue;
    const std::size_t skip = end - piece.offset_bytes;
    done.payload.insert(done.payload.end(), piece.data.begin() + skip,
                        piece.data.end());
  }
  partial_.erase(key);
  return done;
}

std::size_t Reassembler::expire() {
  const util::TimeUs now = clock_.now();
  std::size_t dropped = 0;
  for (auto it = partial_.begin(); it != partial_.end();) {
    if (now - it->second.arrival > timeout_) {
      it = partial_.erase(it);
      ++dropped;
    } else {
      ++it;
    }
  }
  return dropped;
}

}  // namespace fbs::net
