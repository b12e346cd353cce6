#include "fbs/header.hpp"

namespace fbs::core {

namespace {
constexpr std::uint8_t kFlagSecret = 0x01;
// The three unassigned flag bits. serialize_into writes them as zero; parse
// rejects anything else, both to keep the wire encoding canonical
// (one datagram, one encoding) and so future assignments of these bits
// cannot be silently ignored by old receivers.
constexpr std::uint8_t kFlagsReservedMask = 0x0E;
constexpr std::uint8_t kVersionShift = 4;
constexpr std::uint8_t kVersion = 1;

std::uint32_t load_be32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) << 24 |
         static_cast<std::uint32_t>(p[1]) << 16 |
         static_cast<std::uint32_t>(p[2]) << 8 | p[3];
}

std::uint64_t load_be64(const std::uint8_t* p) {
  return static_cast<std::uint64_t>(load_be32(p)) << 32 | load_be32(p + 4);
}

void append_be32(util::Bytes& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v >> 24));
  out.push_back(static_cast<std::uint8_t>(v >> 16));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v));
}
}  // namespace

std::optional<FbsHeaderView> FbsHeaderView::parse(util::BytesView wire) {
  if (wire.size() < kFixedSize) return std::nullopt;
  const std::uint8_t flags = wire[0];
  if ((flags >> kVersionShift) != kVersion) return std::nullopt;
  if (flags & kFlagsReservedMask) return std::nullopt;
  const auto suite = crypto::decode_suite(wire[1]);
  if (!suite) return std::nullopt;
  const std::size_t mac_n = crypto::mac_size(suite->mac);
  if (wire.size() < kFixedSize + mac_n) return std::nullopt;

  FbsHeaderView out;
  out.suite = *suite;
  out.secret = flags & kFlagSecret;
  out.sfl = load_be64(wire.data() + 2);
  out.confounder = load_be32(wire.data() + 10);
  out.timestamp_minutes = load_be32(wire.data() + 14);
  out.mac = wire.subspan(kFixedSize, mac_n);
  out.body = wire.subspan(kFixedSize + mac_n);
  return out;
}

std::uint8_t FbsHeaderView::flags_byte() const {
  std::uint8_t flags = static_cast<std::uint8_t>(kVersion << kVersionShift);
  if (secret) flags |= kFlagSecret;
  return flags;
}

void FbsHeaderView::serialize_into(util::Bytes& out) const {
  out.push_back(flags_byte());
  out.push_back(crypto::encode_suite(suite));
  append_be32(out, static_cast<std::uint32_t>(sfl >> 32));
  append_be32(out, static_cast<std::uint32_t>(sfl));
  append_be32(out, confounder);
  append_be32(out, timestamp_minutes);
  out.insert(out.end(), mac.begin(), mac.end());
}

std::size_t FbsHeaderView::overhead(crypto::AlgorithmSuite suite) {
  return kFixedSize + crypto::mac_size(suite.mac);
}

}  // namespace fbs::core
