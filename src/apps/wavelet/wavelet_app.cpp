#include "apps/wavelet/wavelet_app.hpp"

#include <algorithm>
#include <cmath>
#include <tuple>

#include "apps/wavelet/compress.hpp"
#include "apps/wavelet/correlate.hpp"
#include "apps/wavelet/wavelet2d.hpp"
#include "workload/builder.hpp"

namespace ess::apps::wavelet {

WaveletNumericsInput numerics_input(const WaveletConfig& cfg) {
  return {cfg.image_size,      cfg.levels,     cfg.seed,
          cfg.reference_count, cfg.search_coarse, cfg.search_mid,
          cfg.search_fine};
}

WaveletNumerics compute_numerics(const WaveletNumericsInput& in) {
  WaveletNumerics result;
  std::uint64_t flops = 0;

  Plane scene = synthetic_scene(in.image_size, in.seed);
  result.input_energy = energy(scene);
  flops += scene.data().size() * 2;

  // Each working plane is scoped to its stage, so it is freed before the
  // next stage allocates.
  {
    Plane haar = scene;
    flops += forward2d(haar, in.levels, Filter::kHaar).flops;
    result.haar_energy = energy(haar);
  }

  {
    Plane d4 = scene;
    flops += forward2d(d4, in.levels, Filter::kDaub4).flops;
    result.d4_energy = energy(d4);
    result.compression_ratio =
        static_cast<double>(near_zero(d4, 1.0)) /
        static_cast<double>(d4.data().size());

    // Pyramid registration against a batch of reference scenes: the same
    // terrain shifted by a known offset, decomposed, then located by a
    // coarse-to-fine shift search over the approximation subbands.
    const int coarse_m = in.image_size >> (in.levels - 2);
    const int mid_m = in.image_size >> 2;
    const int fine_m = in.image_size;
    int best_r = 0, best_c = 0;
    for (int ref = 0; ref < in.reference_count; ++ref) {
      const int n = in.image_size;
      const int true_sr = 3 + 2 * ref, true_sc = -5 + 3 * ref;
      Plane reference(n);
      for (int r = 0; r < n; ++r) {
        for (int c = 0; c < n; ++c) {
          reference.at(r, c) =
              scene.at((r + true_sr + n) % n, (c + true_sc + n) % n);
        }
      }
      Plane ref_d4 = std::move(reference);
      flops += forward2d(ref_d4, in.levels, Filter::kDaub4).flops;

      auto search = [&](int m, int grid, int center_r, int center_c) {
        double best = -1e300;
        int br = center_r, bc = center_c;
        for (int dr = -grid / 2; dr < grid / 2; ++dr) {
          for (int dc = -grid / 2; dc < grid / 2; ++dc) {
            const double s = correlate(d4, ref_d4, m, center_r + dr,
                                       center_c + dc, flops);
            if (s > best) {
              best = s;
              br = center_r + dr;
              bc = center_c + dc;
            }
          }
        }
        return std::pair{br, bc};
      };
      std::tie(best_r, best_c) = search(coarse_m, in.search_coarse, 0, 0);
      std::tie(best_r, best_c) = search(mid_m, in.search_mid, best_r, best_c);
      std::tie(best_r, best_c) = search(fine_m, in.search_fine, best_r, best_c);
    }
    result.best_shift_row = best_r;
    result.best_shift_col = best_c;
  }

  // The real compression back-end: quantize + Huffman, decode, and check
  // the reconstruction. The achieved payload sizes the output file.
  const CompressionResult comp =
      compress_roundtrip(scene, in.levels, /*step=*/8.0);
  result.bits_per_pixel = comp.bits_per_pixel;
  result.psnr_db = comp.psnr_db;
  result.payload_bytes = comp.payload_bytes;
  flops += scene.data().size() * 40;  // quantize + entropy-code model
  result.native_flops = flops;
  return result;
}

WaveletRunResult build_run(const WaveletConfig& cfg,
                           const WaveletNumerics& numerics, double cpu_mflops,
                           Rng& rng) {
  WaveletRunResult result;
  result.input_energy = numerics.input_energy;
  result.haar_energy = numerics.haar_energy;
  result.d4_energy = numerics.d4_energy;
  result.compression_ratio = numerics.compression_ratio;
  result.bits_per_pixel = numerics.bits_per_pixel;
  result.psnr_db = numerics.psnr_db;
  result.best_shift_row = numerics.best_shift_row;
  result.best_shift_col = numerics.best_shift_col;
  result.native_flops = numerics.native_flops;

  // The registration search's subband sizes (coarse -> fine).
  const int coarse_m = cfg.image_size >> (cfg.levels - 2);
  const int mid_m = cfg.image_size >> 2;
  const int fine_m = cfg.image_size;

  workload::OpTraceBuilder b("wavelet");
  b.set_image_bytes(cfg.image_bytes);
  b.set_image_warm_fraction(cfg.image_warm_fraction);
  const std::uint64_t plane_bytes =
      static_cast<std::uint64_t>(cfg.image_size) * cfg.image_size * 8;
  // scene, haar, d4, per-reference plane + pyramid copies, and heap: the
  // "large data structures" the paper attributes the paging to.
  const std::uint64_t anon = plane_bytes * 5 + 1024 * 1024;
  b.set_anon_bytes(anon);

  const std::uint64_t input_bytes =
      static_cast<std::uint64_t>(cfg.image_size) * cfg.image_size + 512;
  const auto in = b.input_file(cfg.input_path, input_bytes,
                               cfg.input_goal_block);
  const auto out = b.output_file(cfg.output_path);

  auto to_time = [&](double counted) {
    return static_cast<SimTime>(counted * cfg.model_flops_per_flop /
                                cpu_mflops);
  };

  // Startup: demand-load the whole program image (the paper's early 4 KB
  // paging burst), then allocate/zero the working planes.
  b.touch_range(0, b.peek().image_pages(), false);
  b.compute(to_time(1e6));
  b.touch_range(b.anon_first_page(), anon / 4096, true);
  b.compute(to_time(2e6));

  // Read the image file (the ~50 s spike of large requests).
  for (std::uint64_t off = 0; off < input_bytes; off += cfg.read_chunk) {
    b.read(in, off, std::min<std::uint64_t>(cfg.read_chunk,
                                            input_bytes - off));
    // Unpack bytes into the double plane as we go.
    b.compute(to_time(static_cast<double>(cfg.read_chunk) * 4));
  }

  // Decompositions + registration: the compute lull. The working set is
  // the active pyramid level, shrinking as the levels coarsen.
  const std::uint64_t plane_pages = plane_bytes / 4096;
  const std::uint64_t scene_first = b.anon_first_page();
  const double decomp_flops = 3.0 * 9.9e6;  // three forward transforms
  b.compute_with_working_set(to_time(decomp_flops), scene_first,
                             plane_pages * 3, 24, 96, 0.35, rng);

  const double refs = cfg.reference_count;
  const double coarse_flops = refs * cfg.search_coarse * cfg.search_coarse *
                              coarse_m * coarse_m * 2;
  const double mid_flops =
      refs * cfg.search_mid * cfg.search_mid * mid_m * mid_m * 2;
  const double fine_flops =
      refs * cfg.search_fine * cfg.search_fine * fine_m * fine_m * 2;
  const double ref_decomp_flops = refs * 9.9e6;
  // The registration pipeline stages each reference's decomposed subbands
  // into a scratch file while correlating (the production code kept
  // per-scene intermediates on disk), deleted after the search.
  b.scratch_create("/tmp/wavelet.ref", plane_bytes / 8);
  // Coarse search: small working set (top-left block of two planes),
  // widening at each pyramid level; every set clamped to the anon segment.
  const std::uint64_t anon_pages = anon / 4096;
  b.compute_with_working_set(to_time(ref_decomp_flops + coarse_flops),
                             scene_first, std::min<std::uint64_t>(64, anon_pages),
                             8, 8, 0.1, rng);
  b.compute_with_working_set(to_time(mid_flops), scene_first,
                             std::min<std::uint64_t>(512, anon_pages), 8, 16,
                             0.1, rng);
  b.compute_with_working_set(to_time(fine_flops), scene_first,
                             std::min(plane_pages * 3, anon_pages), 24, 96,
                             0.1, rng);

  // Quantize + entropy-code + write the coefficient file (the heavier
  // tail activity). The compressed payload for both filter banks plus a
  // lossless residual band, sized from the measured bitrate.
  const std::uint64_t out_bytes =
      std::max<std::uint64_t>(numerics.payload_bytes * 6, plane_bytes / 4);
  b.compute_with_working_set(to_time(static_cast<double>(plane_bytes)),
                             scene_first, plane_pages, 8, 32, 0.3, rng);
  for (std::uint64_t off = 0; off < out_bytes; off += 16 * 1024) {
    b.append(out, std::min<std::uint64_t>(16 * 1024, out_bytes - off));
    b.compute(to_time(3e5));
  }
  // Registration report; scratch intermediates removed.
  b.append(out, 512);
  b.unlink("/tmp/wavelet.ref");

  result.trace = std::move(b).build();
  result.modelled_compute = result.trace.total_compute();
  return result;
}

WaveletRunResult run_wavelet(const WaveletConfig& cfg, double cpu_mflops,
                             Rng& rng) {
  return build_run(cfg, compute_numerics(numerics_input(cfg)), cpu_mflops,
                   rng);
}

}  // namespace ess::apps::wavelet
