// The wavelet decomposition / registration workload.
//
// Paper behaviour to reproduce (Fig. 3, Table 1): a high rate of 4 KB
// paging at startup ("large program space and image data requirements"),
// a spike of large requests approaching 16 KB at ~50 s when the 512x512
// image file is read, a compute lull with few page requests, heavier
// activity toward the end, and a 49% / 51% read/write split — the only
// application with significant input data.
#pragma once

#include <compare>
#include <cstdint>
#include <string>

#include "util/rng.hpp"
#include "workload/op.hpp"

namespace ess::apps::wavelet {

struct WaveletConfig {
  int image_size = 512;     // 512x512-byte scene, as in the paper
  int levels = 5;
  std::uint64_t seed = 42;
  std::uint64_t image_bytes = 4 * 1024 * 1024;  // large program image
  double image_warm_fraction = 0.35;  // larger than the cache: mostly cold
  double model_flops_per_flop = 8.0;  // DX4 cost of one counted flop
  std::string input_path = "/data/landsat.img";
  std::uint64_t input_goal_block = 75'000;
  std::string output_path = "/data/wavelet.coef";
  std::uint64_t read_chunk = 8 * 1024;  // app-level read buffer
  // Registration search: shift grids per pyramid level (coarse -> fine),
  // repeated for several reference scenes (a registration batch, as the
  // Goddard imagery pipeline processed).
  int search_coarse = 64;
  int search_mid = 32;
  int search_fine = 16;
  int reference_count = 3;
};

struct WaveletRunResult {
  double input_energy = 0;
  double haar_energy = 0;       // energy after Haar decomposition
  double d4_energy = 0;         // energy after D4 decomposition
  double compression_ratio = 0; // fraction of near-zero D4 coefficients
  double bits_per_pixel = 0;    // achieved by quantize + Huffman
  double psnr_db = 0;           // reconstruction quality at that rate
  int best_shift_row = 0;
  int best_shift_col = 0;
  std::uint64_t native_flops = 0;
  SimTime modelled_compute = 0;
  workload::OpTrace trace;
};

/// Every WaveletConfig field the transforms, the registration search and
/// the compression back-end read: a complete key for their results.
struct WaveletNumericsInput {
  int image_size = 0;
  int levels = 0;
  std::uint64_t seed = 0;
  int reference_count = 0;
  int search_coarse = 0;
  int search_mid = 0;
  int search_fine = 0;

  auto operator<=>(const WaveletNumericsInput&) const = default;
};

/// Phase A's RNG-free results: the result scalars plus the compressed
/// payload size that sizes the output file.
struct WaveletNumerics {
  double input_energy = 0;
  double haar_energy = 0;
  double d4_energy = 0;
  double compression_ratio = 0;
  double bits_per_pixel = 0;
  double psnr_db = 0;
  int best_shift_row = 0;
  int best_shift_col = 0;
  std::uint64_t native_flops = 0;
  std::uint64_t payload_bytes = 0;
};

WaveletNumericsInput numerics_input(const WaveletConfig& cfg);

/// Decompose, register and compress the synthetic scene.
WaveletNumerics compute_numerics(const WaveletNumericsInput& in);

/// Build the workload trace from numerics computed for
/// numerics_input(cfg).
WaveletRunResult build_run(const WaveletConfig& cfg,
                           const WaveletNumerics& numerics, double cpu_mflops,
                           Rng& rng);

/// compute_numerics() then build_run().
WaveletRunResult run_wavelet(const WaveletConfig& cfg, double cpu_mflops,
                             Rng& rng);

}  // namespace ess::apps::wavelet
