// The MD5 compression function (RFC 1321 section 3.4) written once for any
// 32-bit word type: std::uint32_t for the scalar Md5 and an 8-lane GCC
// vector for Md5x8. The 64 steps are straight-line, with constant message
// indices and shifts; on both word types the compilers turn the shift pair
// into a rotate. Internal to md5.cpp and md5x8.cpp.
#pragma once

#include <cstdint>

namespace fbs::crypto::md5_detail {

template <class W>
inline W rotl(W x, int s) {
  return (x << s) | (x >> (32 - s));
}

// The four auxiliary functions, in the forms with one operation fewer:
// F = (x & y) | (~x & z) and G = (x & z) | (y & ~z).
template <class W>
inline W f(W x, W y, W z) {
  return z ^ (x & (y ^ z));
}
template <class W>
inline W g(W x, W y, W z) {
  return y ^ (z & (x ^ y));
}
template <class W>
inline W h(W x, W y, W z) {
  return x ^ y ^ z;
}
template <class W>
inline W i(W x, W y, W z) {
  return y ^ (x | ~z);
}

inline std::uint32_t load_le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

// One step: a = b + ((a + fn(b,c,d) + x + t) <<< s).
#define FBS_MD5_STEP(fn, a, b, c, d, x, t, s) \
  a = b + rotl(a + fn(b, c, d) + (x) + (t), s)

/// Add the compression of message words m[0..15] into the chaining value
/// (a0, b0, c0, d0). The step constants are T[i] = floor(2^32 * |sin(i+1)|).
/// Always inlined: as a call, the message words and the state go through
/// memory, which costs the 8-lane core ~10%.
template <class W>
[[gnu::always_inline]] inline void compress(W& a0, W& b0, W& c0, W& d0,
                                           const W m[16]) {
  W a = a0, b = b0, c = c0, d = d0;
  FBS_MD5_STEP(f, a, b, c, d, m[0], 0xd76aa478, 7);
  FBS_MD5_STEP(f, d, a, b, c, m[1], 0xe8c7b756, 12);
  FBS_MD5_STEP(f, c, d, a, b, m[2], 0x242070db, 17);
  FBS_MD5_STEP(f, b, c, d, a, m[3], 0xc1bdceee, 22);
  FBS_MD5_STEP(f, a, b, c, d, m[4], 0xf57c0faf, 7);
  FBS_MD5_STEP(f, d, a, b, c, m[5], 0x4787c62a, 12);
  FBS_MD5_STEP(f, c, d, a, b, m[6], 0xa8304613, 17);
  FBS_MD5_STEP(f, b, c, d, a, m[7], 0xfd469501, 22);
  FBS_MD5_STEP(f, a, b, c, d, m[8], 0x698098d8, 7);
  FBS_MD5_STEP(f, d, a, b, c, m[9], 0x8b44f7af, 12);
  FBS_MD5_STEP(f, c, d, a, b, m[10], 0xffff5bb1, 17);
  FBS_MD5_STEP(f, b, c, d, a, m[11], 0x895cd7be, 22);
  FBS_MD5_STEP(f, a, b, c, d, m[12], 0x6b901122, 7);
  FBS_MD5_STEP(f, d, a, b, c, m[13], 0xfd987193, 12);
  FBS_MD5_STEP(f, c, d, a, b, m[14], 0xa679438e, 17);
  FBS_MD5_STEP(f, b, c, d, a, m[15], 0x49b40821, 22);

  FBS_MD5_STEP(g, a, b, c, d, m[1], 0xf61e2562, 5);
  FBS_MD5_STEP(g, d, a, b, c, m[6], 0xc040b340, 9);
  FBS_MD5_STEP(g, c, d, a, b, m[11], 0x265e5a51, 14);
  FBS_MD5_STEP(g, b, c, d, a, m[0], 0xe9b6c7aa, 20);
  FBS_MD5_STEP(g, a, b, c, d, m[5], 0xd62f105d, 5);
  FBS_MD5_STEP(g, d, a, b, c, m[10], 0x02441453, 9);
  FBS_MD5_STEP(g, c, d, a, b, m[15], 0xd8a1e681, 14);
  FBS_MD5_STEP(g, b, c, d, a, m[4], 0xe7d3fbc8, 20);
  FBS_MD5_STEP(g, a, b, c, d, m[9], 0x21e1cde6, 5);
  FBS_MD5_STEP(g, d, a, b, c, m[14], 0xc33707d6, 9);
  FBS_MD5_STEP(g, c, d, a, b, m[3], 0xf4d50d87, 14);
  FBS_MD5_STEP(g, b, c, d, a, m[8], 0x455a14ed, 20);
  FBS_MD5_STEP(g, a, b, c, d, m[13], 0xa9e3e905, 5);
  FBS_MD5_STEP(g, d, a, b, c, m[2], 0xfcefa3f8, 9);
  FBS_MD5_STEP(g, c, d, a, b, m[7], 0x676f02d9, 14);
  FBS_MD5_STEP(g, b, c, d, a, m[12], 0x8d2a4c8a, 20);

  FBS_MD5_STEP(h, a, b, c, d, m[5], 0xfffa3942, 4);
  FBS_MD5_STEP(h, d, a, b, c, m[8], 0x8771f681, 11);
  FBS_MD5_STEP(h, c, d, a, b, m[11], 0x6d9d6122, 16);
  FBS_MD5_STEP(h, b, c, d, a, m[14], 0xfde5380c, 23);
  FBS_MD5_STEP(h, a, b, c, d, m[1], 0xa4beea44, 4);
  FBS_MD5_STEP(h, d, a, b, c, m[4], 0x4bdecfa9, 11);
  FBS_MD5_STEP(h, c, d, a, b, m[7], 0xf6bb4b60, 16);
  FBS_MD5_STEP(h, b, c, d, a, m[10], 0xbebfbc70, 23);
  FBS_MD5_STEP(h, a, b, c, d, m[13], 0x289b7ec6, 4);
  FBS_MD5_STEP(h, d, a, b, c, m[0], 0xeaa127fa, 11);
  FBS_MD5_STEP(h, c, d, a, b, m[3], 0xd4ef3085, 16);
  FBS_MD5_STEP(h, b, c, d, a, m[6], 0x04881d05, 23);
  FBS_MD5_STEP(h, a, b, c, d, m[9], 0xd9d4d039, 4);
  FBS_MD5_STEP(h, d, a, b, c, m[12], 0xe6db99e5, 11);
  FBS_MD5_STEP(h, c, d, a, b, m[15], 0x1fa27cf8, 16);
  FBS_MD5_STEP(h, b, c, d, a, m[2], 0xc4ac5665, 23);

  FBS_MD5_STEP(i, a, b, c, d, m[0], 0xf4292244, 6);
  FBS_MD5_STEP(i, d, a, b, c, m[7], 0x432aff97, 10);
  FBS_MD5_STEP(i, c, d, a, b, m[14], 0xab9423a7, 15);
  FBS_MD5_STEP(i, b, c, d, a, m[5], 0xfc93a039, 21);
  FBS_MD5_STEP(i, a, b, c, d, m[12], 0x655b59c3, 6);
  FBS_MD5_STEP(i, d, a, b, c, m[3], 0x8f0ccc92, 10);
  FBS_MD5_STEP(i, c, d, a, b, m[10], 0xffeff47d, 15);
  FBS_MD5_STEP(i, b, c, d, a, m[1], 0x85845dd1, 21);
  FBS_MD5_STEP(i, a, b, c, d, m[8], 0x6fa87e4f, 6);
  FBS_MD5_STEP(i, d, a, b, c, m[15], 0xfe2ce6e0, 10);
  FBS_MD5_STEP(i, c, d, a, b, m[6], 0xa3014314, 15);
  FBS_MD5_STEP(i, b, c, d, a, m[13], 0x4e0811a1, 21);
  FBS_MD5_STEP(i, a, b, c, d, m[4], 0xf7537e82, 6);
  FBS_MD5_STEP(i, d, a, b, c, m[11], 0xbd3af235, 10);
  FBS_MD5_STEP(i, c, d, a, b, m[2], 0x2ad7d2bb, 15);
  FBS_MD5_STEP(i, b, c, d, a, m[9], 0xeb86d391, 21);

  a0 += a;
  b0 += b;
  c0 += c;
  d0 += d;
}

#undef FBS_MD5_STEP

}  // namespace fbs::crypto::md5_detail
