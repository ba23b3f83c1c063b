// The combined SPMD cluster run: PPM, wavelet and N-body each spanning
// every node of a pdes::Machine (world = 3N ranks, one barrier group per
// job), traced from spawn until a 35 s daemon tail after completion.
// ext_pdes_scaling, ext_parallel_machine and `esstrace capture-pdes` all
// run this one sequence.
#pragma once

#include <cstddef>
#include <vector>

#include "core/study.hpp"
#include "pdes/fabric.hpp"
#include "trace/trace_set.hpp"

namespace ess::pvm {

struct CombinedRun {
  std::vector<trace::TraceSet> traces;  // per node, rebased to spawn time
  pdes::FabricStats stats;
  std::size_t shards = 0;  // the machine's resolved shard count
  bool completed = false;  // every rank finished before scfg.max_run_time
};

/// One combined-workload run: `nodes` nodes over `shards` shard engines on
/// `jobs` runners (pdes::MachineConfig's meaning of 0 for both). The
/// traces are identical at any shard/job count.
CombinedRun run_combined(const core::StudyConfig& scfg, int nodes,
                         std::size_t shards, std::size_t jobs);

}  // namespace ess::pvm
