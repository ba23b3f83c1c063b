// The N-body application workload.
//
// Paper behaviour to reproduce (Fig. 4, Table 1): mostly 1 KB block I/O
// with more 2 KB requests and a few 4 KB page swaps than PPM (higher
// compute pressure maintaining the working set), 13% reads / 87% writes,
// periodic short statistics, final results at the end; 8K particles per
// processor, ~303 M interactions over the run.
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

namespace ess::apps::nbody {

struct NBodyConfig {
  int bodies = 8192;
  int steps = 60;
  double dt = 0.01;
  double theta = 0.6;
  double softening = 0.05;
  int checkpoint_every = 4;     // steps between ~2 KB statistics appends
  std::uint64_t seed = 7;
  std::uint64_t image_bytes = 896 * 1024;
  double image_warm_fraction = 0.85;
  /// Heap beyond bodies + double-buffered tree arenas: sort scratch and
  /// allocator fragmentation over the long run.
  std::uint64_t heap_slack_bytes = 2 * 1024 * 1024;
  double model_flops_per_flop = 1.0;  // interactions are costed directly
  double flops_per_interaction = 25.0;  // DX4 cost incl. sqrt
  std::string output_path = "/data/nbody.out";
};

struct NBodyRunResult {
  std::uint64_t total_interactions = 0;
  double final_kinetic = 0;
  double momentum_drift = 0;  // |P_final - P_initial|
  std::uint64_t native_flops = 0;
  SimTime modelled_compute = 0;
  workload::OpTrace trace;
};

/// Every NBodyConfig field the simulation reads: a complete key for its
/// results.
struct NBodyNumericsInput {
  int bodies = 0;
  int steps = 0;
  double dt = 0;
  double theta = 0;
  double softening = 0;
  std::uint64_t seed = 0;

  auto operator<=>(const NBodyNumericsInput&) const = default;
};

/// The simulation's RNG-free results: what build_run() consumes.
struct NBodyNumerics {
  std::vector<std::uint64_t> step_interactions;  // returned by each step
  std::uint64_t total_interactions = 0;  // + the initial force pass
  double final_kinetic = 0;
  double momentum_drift = 0;
};

NBodyNumericsInput numerics_input(const NBodyConfig& cfg);

/// Run the simulation for in.steps; `pool` (null = serial) runs the force
/// pass's body blocks, with bit-identical results at any worker count.
NBodyNumerics compute_numerics(const NBodyNumericsInput& in,
                               exec::ThreadPool* pool = nullptr);

/// Build the workload trace from numerics computed for
/// numerics_input(cfg).
NBodyRunResult build_run(const NBodyConfig& cfg, const NBodyNumerics& numerics,
                         double cpu_mflops, Rng& rng);

/// compute_numerics() on an exec::default_workers() pool, then build_run().
NBodyRunResult run_nbody(const NBodyConfig& cfg, double cpu_mflops, Rng& rng);

}  // namespace ess::apps::nbody
