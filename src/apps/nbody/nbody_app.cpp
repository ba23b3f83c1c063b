#include "apps/nbody/nbody_app.hpp"

#include <cmath>

#include "apps/nbody/octree.hpp"
#include "exec/thread_pool.hpp"
#include "workload/builder.hpp"

namespace ess::apps::nbody {

NBodyNumericsInput numerics_input(const NBodyConfig& cfg) {
  return {cfg.bodies, cfg.steps, cfg.dt, cfg.theta, cfg.softening, cfg.seed};
}

NBodyNumerics compute_numerics(const NBodyNumericsInput& in,
                               exec::ThreadPool* pool) {
  NBodySim sim(in.bodies, in.seed, pool);
  const Vec3 p0 = sim.stats().momentum;
  NBodyNumerics n;
  n.step_interactions.reserve(static_cast<std::size_t>(in.steps));
  for (int s = 0; s < in.steps; ++s) {
    n.step_interactions.push_back(sim.step(in.dt, in.theta, in.softening));
  }
  const SystemStats st = sim.stats();
  n.total_interactions = sim.total_interactions();
  n.final_kinetic = st.kinetic;
  const Vec3 drift = st.momentum - p0;
  n.momentum_drift = std::sqrt(drift.norm2());
  return n;
}

NBodyRunResult build_run(const NBodyConfig& cfg, const NBodyNumerics& numerics,
                         double cpu_mflops, Rng& rng) {
  workload::OpTraceBuilder b("nbody");
  b.set_image_bytes(cfg.image_bytes);
  b.set_image_warm_fraction(cfg.image_warm_fraction);
  const std::uint64_t body_bytes =
      static_cast<std::uint64_t>(cfg.bodies) * sizeof(Body);
  // Two body arrays (sort permutation) + double-buffered tree arenas
  // (~2 nodes per body each) + heap slack; the slight overshoot past free
  // RAM is what produces the paper's "few page swaps" for this code.
  const std::uint64_t tree_bytes =
      std::uint64_t{2} * cfg.bodies * sizeof(Octree::Node);
  const std::uint64_t anon =
      body_bytes * 2 + tree_bytes * 2 + cfg.heap_slack_bytes;
  b.set_anon_bytes(anon);
  const auto out = b.output_file(cfg.output_path);

  // Startup: load the image, initialize particles.
  b.touch_range(0, b.peek().image_pages(), false);
  b.touch_range(b.anon_first_page(), body_bytes / 4096 + 1, true);
  b.compute(msec(800));

  NBodyRunResult result;
  const std::uint64_t anon_pages = anon / 4096;
  for (int s = 0; s < cfg.steps; ++s) {
    const std::uint64_t inter = numerics.step_interactions[s];
    // Tree build ~ 60 flops/body-level, force evaluation dominated by the
    // interaction count.
    const double step_flops =
        static_cast<double>(inter) * cfg.flops_per_interaction +
        static_cast<double>(cfg.bodies) * 60.0 * 13.0;
    result.native_flops += static_cast<std::uint64_t>(step_flops);

    const auto step_time = static_cast<SimTime>(
        step_flops * cfg.model_flops_per_flop / cpu_mflops);
    // Tree rebuild churns the heap: a rebuild touches the whole arena with
    // writes; force evaluation re-reads it.
    b.compute_with_working_set(step_time, b.anon_first_page(), anon_pages,
                               /*slices=*/6, /*pages_per_slice=*/20,
                               /*write_fraction=*/0.45, rng);

    if ((s + 1) % cfg.checkpoint_every == 0) {
      // ~2 KB of per-step diagnostics: energy, momentum, tree stats —
      // the source of the paper's 2 KB request class for this code.
      b.append(out, 2048);
      b.compute(msec(2));
    }
  }

  result.total_interactions = numerics.total_interactions;
  result.final_kinetic = numerics.final_kinetic;
  result.momentum_drift = numerics.momentum_drift;

  // Final particle snapshot summary (~16 KB: positions of a subsample).
  b.append(out, 16 * 1024);
  result.trace = std::move(b).build();
  result.modelled_compute = result.trace.total_compute();
  return result;
}

NBodyRunResult run_nbody(const NBodyConfig& cfg, double cpu_mflops,
                         Rng& rng) {
  exec::ThreadPool pool(exec::default_workers());
  return build_run(cfg, compute_numerics(numerics_input(cfg), &pool),
                   cpu_mflops, rng);
}

}  // namespace ess::apps::nbody
