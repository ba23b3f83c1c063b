// The PPM application workload: runs the real solver (phase A) and records
// the OpTrace the kernel will execute (phase B).
//
// Phase A is split in two so it can be computed once and shared:
// compute_numerics() runs the solver from a PpmNumericsInput (the only
// config fields it reads) and keeps what the trace needs; build_run()
// turns that into the OpTrace with the caller's Rng and CPU speed.
//
// Paper behaviour to reproduce (Fig. 2, Table 1): very low I/O, almost all
// 1 KB requests, a single 4 KB paging event near the end of the ~250 s run,
// 4% reads / 96% writes. PPM is "a simulation with no input data, and only
// short statistical summaries being written".
#pragma once

#include <compare>
#include <cstdint>
#include <string>
#include <vector>

#include "util/rng.hpp"
#include "workload/op.hpp"

namespace ess::exec {
class ThreadPool;
}

namespace ess::apps::ppm {

struct PpmConfig {
  int nx = 240;
  int ny = 480;      // "four 240x480 grids": 4 conserved fields on 240x480
  int steps = 60;    // sized so the modelled run is ~250 s on the DX4
  double cfl = 0.4;
  int summary_every = 10;           // steps between statistics appends
  /// 0 disables checkpointing (the paper's configuration). When set, the
  /// solver dumps its full conserved-variable state every N steps — the
  /// "checkpoint" I/O class of Miller & Katz's taxonomy, provided as an
  /// extension experiment (bench/ext_checkpoint_class).
  int checkpoint_every = 0;
  std::string checkpoint_path = "/data/ppm.chk";
  std::uint64_t image_bytes = 640 * 1024;  // executable (text+data)
  double image_warm_fraction = 0.95;  // binary mostly hot in the cache
  double model_flops_per_flop = 2.5;  // DX4 cost of one counted flop
  std::string output_path = "/data/ppm.out";
};

struct PpmRunResult {
  double final_mass = 0;
  double final_energy = 0;
  double max_density = 0;
  std::uint64_t native_flops = 0;
  SimTime modelled_compute = 0;
  workload::OpTrace trace;
};

/// Every PpmConfig field the solver reads: a complete key for its results.
struct PpmNumericsInput {
  int nx = 0;
  int ny = 0;
  int steps = 0;
  double cfl = 0;

  auto operator<=>(const PpmNumericsInput&) const = default;
};

/// The solver's RNG-free results: what build_run() consumes.
struct PpmNumerics {
  std::vector<std::uint64_t> step_flops;  // counted flops of each step
  std::uint64_t memory_bytes = 0;         // the solver's field arrays
  double final_mass = 0;
  double final_energy = 0;
  double max_density = 0;
};

PpmNumericsInput numerics_input(const PpmConfig& cfg);

/// Run the solver for in.steps; `pool` (null = serial) runs the sweeps'
/// bands, with bit-identical results at any worker count.
PpmNumerics compute_numerics(const PpmNumericsInput& in,
                             exec::ThreadPool* pool = nullptr);

/// Build the workload trace from numerics computed for
/// numerics_input(cfg). `cpu_mflops` converts counted work to DX4 time.
PpmRunResult build_run(const PpmConfig& cfg, const PpmNumerics& numerics,
                       double cpu_mflops, Rng& rng);

/// compute_numerics() on an exec::default_workers() pool, then build_run().
PpmRunResult run_ppm(const PpmConfig& cfg, double cpu_mflops, Rng& rng);

}  // namespace ess::apps::ppm
