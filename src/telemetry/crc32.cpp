#include <array>

#include "telemetry/crc32_impl.hpp"
#include "telemetry/esst.hpp"
#include "telemetry/esst_codec.hpp"

namespace ess::telemetry {

std::uint32_t crc::update_slicing8(std::uint32_t state, const std::uint8_t* p,
                                   std::size_t len) {
  // Slicing-by-8: eight derived tables let the loop fold eight input bytes
  // per iteration — one table load per byte still, but 1/8th the loop
  // carried dependency length of the classic bytewise form. Same
  // polynomial (IEEE 802.3 / zlib, reflected 0xedb88320).
  static const auto tables = [] {
    std::array<std::array<std::uint32_t, 256>, 8> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
      }
      t[0][i] = c;
    }
    for (std::size_t s = 1; s < 8; ++s) {
      for (std::uint32_t i = 0; i < 256; ++i) {
        const std::uint32_t c = t[s - 1][i];
        t[s][i] = t[0][c & 0xff] ^ (c >> 8);
      }
    }
    return t;
  }();
  const auto& t = tables;
  std::uint32_t c = state;
  // Word loads composed byte-by-byte (get_u32) stay endian-correct and
  // alignment-safe; compilers collapse them to single loads on LE targets.
  while (len >= 8) {
    const std::uint32_t lo = c ^ codec::get_u32(p);
    const std::uint32_t hi = codec::get_u32(p + 4);
    c = t[7][lo & 0xff] ^ t[6][(lo >> 8) & 0xff] ^ t[5][(lo >> 16) & 0xff] ^
        t[4][lo >> 24] ^ t[3][hi & 0xff] ^ t[2][(hi >> 8) & 0xff] ^
        t[1][(hi >> 16) & 0xff] ^ t[0][hi >> 24];
    p += 8;
    len -= 8;
  }
  for (std::size_t i = 0; i < len; ++i) {
    c = t[0][(c ^ p[i]) & 0xff] ^ (c >> 8);
  }
  return c;
}

std::uint32_t crc::slicing8(const void* data, std::size_t len,
                            std::uint32_t seed) {
  return update_slicing8(seed ^ 0xffffffffu,
                         static_cast<const std::uint8_t*>(data), len) ^
         0xffffffffu;
}

#if defined(ESS_CRC32_CLMUL)
bool crc::clmul_supported() { return __builtin_cpu_supports("pclmul"); }
#else
// Not an x86 build: no fold (crc32_clmul.cpp is not compiled).
bool crc::clmul_supported() { return false; }
std::uint32_t crc::clmul(const void* data, std::size_t len,
                         std::uint32_t seed) {
  return slicing8(data, len, seed);
}
#endif

std::uint32_t crc32(const void* data, std::size_t len, std::uint32_t seed) {
  // Picked once per process, like the N-body kernel: the fold where the
  // CPU has PCLMULQDQ, slicing-by-8 everywhere else.
  static const auto impl = crc::clmul_supported() ? crc::clmul : crc::slicing8;
  return impl(data, len, seed);
}

}  // namespace ess::telemetry
