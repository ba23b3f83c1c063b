// The carry-less-multiply CRC-32. This file alone is built with -mpclmul
// (src/telemetry/CMakeLists.txt); it runs only where
// __builtin_cpu_supports("pclmul") holds (see crc::clmul_supported()).
//
// The fold of Gopal et al., "Fast CRC Computation for Generic Polynomials
// Using PCLMULQDQ Instruction" (Intel, 2009), for the reflected polynomial
// 0xedb88320. Four 128-bit lanes take 64 bytes per step: each lane's
// state is multiplied forward by x^(512±64) mod P and the next block is
// xored on. The lanes then fold into one 128-bit value, which takes the
// remaining whole 16-byte blocks. That value is congruent to everything
// folded so far, so the table CRC of its 16 bytes from raw state 0 is the
// raw CRC state there; the tail of under 16 bytes continues from it in the
// table loop.
#if !defined(__PCLMUL__)
#error "crc32_clmul.cpp must be built with -mpclmul"
#endif

#include <emmintrin.h>
#include <wmmintrin.h>

#include "telemetry/crc32_impl.hpp"

namespace ess::telemetry {

std::uint32_t crc::clmul(const void* data, std::size_t len,
                         std::uint32_t seed) {
  if (len < 64) return slicing8(data, len, seed);
  const auto* p = static_cast<const std::uint8_t*>(data);
  const auto load = [](const std::uint8_t* q) {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(q));
  };
  // x^(4*128+32) and x^(4*128-32) mod P, then x^(128+32) and x^(128-32),
  // bit-reflected (k1..k4 of the paper).
  const __m128i k1k2 = _mm_set_epi64x(0x1c6e41596, 0x154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x0ccaa009e, 0x1751997d0);
  // One fold step: x moved forward over the distance k encodes, plus b.
  const auto fold = [](__m128i x, __m128i k, __m128i b) {
    return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00),
                                       _mm_clmulepi64_si128(x, k, 0x11)),
                         b);
  };

  __m128i x0 = _mm_xor_si128(load(p),
                             _mm_cvtsi32_si128(static_cast<int>(~seed)));
  __m128i x1 = load(p + 16);
  __m128i x2 = load(p + 32);
  __m128i x3 = load(p + 48);
  p += 64;
  len -= 64;
  while (len >= 64) {
    x0 = fold(x0, k1k2, load(p));
    x1 = fold(x1, k1k2, load(p + 16));
    x2 = fold(x2, k1k2, load(p + 32));
    x3 = fold(x3, k1k2, load(p + 48));
    p += 64;
    len -= 64;
  }
  x0 = fold(x0, k3k4, x1);
  x0 = fold(x0, k3k4, x2);
  x0 = fold(x0, k3k4, x3);
  while (len >= 16) {
    x0 = fold(x0, k3k4, load(p));
    p += 16;
    len -= 16;
  }

  alignas(16) std::uint8_t folded[16];
  _mm_store_si128(reinterpret_cast<__m128i*>(folded), x0);
  return update_slicing8(update_slicing8(0, folded, 16), p, len) ^
         0xffffffffu;
}

}  // namespace ess::telemetry
