#include "apps/ppm/ppm_app.hpp"

#include "apps/ppm/euler2d.hpp"
#include "exec/thread_pool.hpp"
#include "workload/builder.hpp"

namespace ess::apps::ppm {

PpmNumericsInput numerics_input(const PpmConfig& cfg) {
  return {cfg.nx, cfg.ny, cfg.steps, cfg.cfl};
}

PpmNumerics compute_numerics(const PpmNumericsInput& in,
                             exec::ThreadPool* pool) {
  PpmSolver solver(in.nx, in.ny, 1.0 / in.nx, 1.0 / in.nx, pool);
  solver.init_blast(0.1, 10.0, 0.1);
  PpmNumerics n;
  n.memory_bytes = solver.memory_bytes();
  n.step_flops.reserve(static_cast<std::size_t>(in.steps));
  for (int s = 0; s < in.steps; ++s) {
    n.step_flops.push_back(solver.step(in.cfl).flops);
  }
  const Totals t = solver.totals();
  n.final_mass = t.mass;
  n.final_energy = t.energy;
  n.max_density = t.max_density;
  return n;
}

PpmRunResult build_run(const PpmConfig& cfg, const PpmNumerics& numerics,
                       double cpu_mflops, Rng& rng) {
  workload::OpTraceBuilder b("ppm");
  b.set_image_bytes(cfg.image_bytes);
  b.set_image_warm_fraction(cfg.image_warm_fraction);
  const std::uint64_t anon = numerics.memory_bytes + 256 * 1024;  // + heap
  b.set_anon_bytes(anon);
  const auto out = b.output_file(cfg.output_path);
  const auto chk = cfg.checkpoint_every > 0
                       ? b.output_file(cfg.checkpoint_path)
                       : workload::FileRef{0};
  // Full conserved state: four fields of the grid, double precision.
  const std::uint64_t checkpoint_bytes =
      static_cast<std::uint64_t>(cfg.nx) * cfg.ny * 4 * sizeof(double);

  // Startup: demand-load the image and touch the field arrays once
  // (allocation + initialization). Zero-fill minor faults, no input data.
  b.touch_range(0, b.peek().image_pages(), false);
  b.touch_range(b.anon_first_page(), anon / 4096, true);

  const std::uint64_t grid_pages = anon / 4096;
  PpmRunResult result;
  for (int s = 0; s < cfg.steps; ++s) {
    const std::uint64_t flops = numerics.step_flops[s];
    result.native_flops += flops;

    // Model the step's CPU time and its memory sweep. The solver walks all
    // four field arrays each sweep — the working set is the whole grid, so
    // touch a sample of its pages spread across the step.
    const auto model_flops =
        static_cast<double>(flops) * cfg.model_flops_per_flop;
    const auto step_time =
        static_cast<SimTime>(model_flops / cpu_mflops);  // us
    b.compute_with_working_set(step_time, b.anon_first_page(), grid_pages,
                               /*slices=*/4, /*pages_per_slice=*/24,
                               /*write_fraction=*/0.6, rng);

    if ((s + 1) % cfg.summary_every == 0) {
      // Short statistical summary (a few lines of text).
      b.append(out, 160);
      b.compute(usec(500));
    }
    if (cfg.checkpoint_every > 0 && (s + 1) % cfg.checkpoint_every == 0) {
      // Restart dump: overwrite the checkpoint file in place (the standard
      // restart-file discipline), streamed in 64 KB chunks.
      for (std::uint64_t off = 0; off < checkpoint_bytes; off += 64 * 1024) {
        b.write(chk, off,
                std::min<std::uint64_t>(64 * 1024, checkpoint_bytes - off));
        b.compute(msec(4));  // gather/format the slab
      }
    }
  }

  result.final_mass = numerics.final_mass;
  result.final_energy = numerics.final_energy;
  result.max_density = numerics.max_density;

  // Final results: conserved-variable summary, ~2 KB.
  b.append(out, 2048);
  result.trace = std::move(b).build();
  result.modelled_compute = result.trace.total_compute();
  return result;
}

PpmRunResult run_ppm(const PpmConfig& cfg, double cpu_mflops, Rng& rng) {
  exec::ThreadPool pool(exec::default_workers());
  return build_run(cfg, compute_numerics(numerics_input(cfg), &pool),
                   cpu_mflops, rng);
}

}  // namespace ess::apps::ppm
