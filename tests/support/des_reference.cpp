#include "support/des_reference.hpp"

#include <cassert>

#include "crypto/des_tables.hpp"

namespace fbs::crypto {

namespace {

using namespace des_tables;

std::uint32_t feistel(std::uint32_t half, std::uint64_t subkey) {
  const std::uint64_t expanded =
      permute(half, kExpansion, 32) ^ subkey;  // 48 bits
  std::uint32_t sboxed = 0;
  for (int i = 0; i < 8; ++i) {
    const auto six =
        static_cast<std::uint8_t>((expanded >> (42 - 6 * i)) & 0x3F);
    // Row = outer two bits, column = inner four.
    const int row = ((six & 0x20) >> 4) | (six & 1);
    const int col = (six >> 1) & 0xF;
    sboxed = sboxed << 4 | kSbox[i][row * 16 + col];
  }
  return static_cast<std::uint32_t>(permute(sboxed, kPbox, 32));
}

}  // namespace

DesReference::DesReference(util::BytesView key) {
  assert(key.size() == kKeySize);
  // PC-1, then per round: rotate C and D, PC-2 -- one bit at a time.
  const std::uint64_t pc1 = permute(Des::load_be64(key.data()), kPc1, 64);
  std::uint32_t c = static_cast<std::uint32_t>(pc1 >> 28);
  std::uint32_t d = static_cast<std::uint32_t>(pc1 & 0x0FFFFFFFull);
  for (std::size_t round = 0; round < 16; ++round) {
    c = rotl28(c, kShifts[round]);
    d = rotl28(d, kShifts[round]);
    const std::uint64_t cd = static_cast<std::uint64_t>(c) << 28 | d;
    subkeys_[round] = permute(cd, kPc2, 56);
  }
}

std::uint64_t DesReference::crypt(std::uint64_t block, bool decrypt,
                                  Des::RoundTrace* trace) const {
  const std::uint64_t ip = permute(block, kIp, 64);
  std::uint32_t l = static_cast<std::uint32_t>(ip >> 32);
  std::uint32_t r = static_cast<std::uint32_t>(ip);
  if (trace) {
    trace->l[0] = l;
    trace->r[0] = r;
  }
  for (int round = 0; round < 16; ++round) {
    const std::uint64_t k = subkeys_[decrypt ? 15 - round : round];
    const std::uint32_t next = l ^ feistel(r, k);
    l = r;
    r = next;
    if (trace) {
      trace->l[round + 1] = l;
      trace->r[round + 1] = r;
    }
  }
  // Note the swap: preoutput is R16 L16.
  const std::uint64_t preoutput = static_cast<std::uint64_t>(r) << 32 | l;
  return permute(preoutput, kFp, 64);
}

std::uint64_t DesReference::encrypt_block(std::uint64_t block) const {
  return crypt(block, false, nullptr);
}

std::uint64_t DesReference::decrypt_block(std::uint64_t block) const {
  return crypt(block, true, nullptr);
}

std::uint64_t DesReference::crypt_trace(std::uint64_t block, bool decrypt,
                                        Des::RoundTrace& trace) const {
  return crypt(block, decrypt, &trace);
}

}  // namespace fbs::crypto
