#include "crypto/md5.hpp"

#include <cstring>

#include "crypto/md5_steps.hpp"

namespace fbs::crypto {

void Md5::reset() {
  state_ = {0x67452301u, 0xefcdab89u, 0x98badcfeu, 0x10325476u};
  total_len_ = 0;
}

void Md5::process_block(const std::uint8_t* block) {
  std::uint32_t m[16];
  for (int w = 0; w < 16; ++w) m[w] = md5_detail::load_le32(block + 4 * w);
  md5_detail::compress(state_[0], state_[1], state_[2], state_[3], m);
}

void Md5::update(util::BytesView data) {
  std::size_t fill = total_len_ % kBlockSize;
  total_len_ += data.size();
  std::size_t off = 0;
  if (fill) {
    const std::size_t take = std::min(kBlockSize - fill, data.size());
    std::memcpy(buffer_.data() + fill, data.data(), take);
    off = take;
    fill += take;
    if (fill < kBlockSize) return;
    process_block(buffer_.data());
  }
  while (off + kBlockSize <= data.size()) {
    process_block(data.data() + off);
    off += kBlockSize;
  }
  if (off < data.size())
    std::memcpy(buffer_.data(), data.data() + off, data.size() - off);
}

void Md5::finish_into(std::uint8_t* out) {
  const std::uint64_t bit_len = total_len_ * 8;
  // Pad: 0x80 then zeros to 56 mod 64, then the 64-bit little-endian length.
  static constexpr std::uint8_t kPad[kBlockSize] = {0x80};
  const std::size_t fill = total_len_ % kBlockSize;
  const std::size_t pad_len = (fill < 56) ? 56 - fill : 120 - fill;
  update({kPad, pad_len});
  std::uint8_t len_bytes[8];
  for (int i = 0; i < 8; ++i)
    len_bytes[i] = static_cast<std::uint8_t>(bit_len >> (8 * i));
  update({len_bytes, 8});

  for (int i = 0; i < 4; ++i) {
    out[4 * i] = static_cast<std::uint8_t>(state_[i]);
    out[4 * i + 1] = static_cast<std::uint8_t>(state_[i] >> 8);
    out[4 * i + 2] = static_cast<std::uint8_t>(state_[i] >> 16);
    out[4 * i + 3] = static_cast<std::uint8_t>(state_[i] >> 24);
  }
}

util::Bytes md5(util::BytesView data) {
  Md5 ctx;
  ctx.update(data);
  return ctx.finish();
}

}  // namespace fbs::crypto
