// The two CRC-32 implementations behind telemetry::crc32 (esst.hpp).
//
// slicing8 folds eight bytes per step through eight derived tables and
// runs on every host. clmul folds 64 bytes per step with carry-less
// multiplies (PCLMULQDQ); crc32_clmul.cpp alone is built with -mpclmul,
// and crc32() picks it once per process when the CPU has the instruction
// (clmul_supported()). Both compute the same function — same polynomial,
// same conditioning, same seed chaining — for every input, which
// tests/telemetry/esst_test.cpp checks against a bytewise reference.
//
// This header is telemetry-internal: include it from telemetry/*.cpp,
// tests and micro benchmarks, not from public headers.
#pragma once

#include <cstddef>
#include <cstdint>

namespace ess::telemetry::crc {

/// The table update over `len` bytes from a raw CRC state: no pre- or
/// post-inversion. slicing8() is this between the two inversions; the
/// clmul fold finishes with it.
std::uint32_t update_slicing8(std::uint32_t state, const std::uint8_t* p,
                              std::size_t len);

/// crc32(data, len, seed) by slicing-by-8.
std::uint32_t slicing8(const void* data, std::size_t len, std::uint32_t seed);

/// crc32(data, len, seed) by the carry-less-multiply fold; inputs under
/// 64 bytes go to slicing8. Call only where clmul_supported() holds (on
/// builds without the fold it is slicing8).
std::uint32_t clmul(const void* data, std::size_t len, std::uint32_t seed);

/// True when this build has the fold and the CPU has PCLMULQDQ.
bool clmul_supported();

}  // namespace ess::telemetry::crc
