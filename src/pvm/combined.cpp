#include "pvm/combined.hpp"

#include <utility>

#include "pdes/machine.hpp"
#include "pvm/parallel_apps.hpp"
#include "util/rng.hpp"

namespace ess::pvm {

CombinedRun run_combined(const core::StudyConfig& scfg, int nodes,
                         std::size_t shards, std::size_t jobs) {
  CombinedRun out;

  kernel::KernelConfig node_cfg = scfg.node;
  node_cfg.max_coalesce_blocks = scfg.combined_coalesce_blocks;
  node_cfg.readahead_ceiling_blocks = scfg.combined_readahead_blocks;

  pdes::MachineConfig cfg;
  cfg.nodes = nodes;
  cfg.shards = shards;
  cfg.jobs = jobs;
  cfg.node = node_cfg;
  pdes::Machine m(cfg);

  // Three SPMD jobs of `nodes` ranks each: ranks are globally numbered
  // and each job's barriers live in their own group.
  Rng rng(scfg.seed);
  auto ppm = parallel_ppm(scfg.ppm, nodes, node_cfg.cpu_mflops, rng);
  auto wav = parallel_wavelet(scfg.wavelet, nodes, node_cfg.cpu_mflops, rng);
  auto nb = parallel_nbody(scfg.nbody, nodes, node_cfg.cpu_mflops, rng);
  for (int r = 0; r < nodes; ++r) {
    retarget(wav[static_cast<std::size_t>(r)], nodes, 1);
    retarget(nb[static_cast<std::size_t>(r)], 2 * nodes, 2);
  }
  m.fabric().set_world_size(3 * nodes);
  for (int r = 0; r < nodes; ++r) {
    m.stage(r, ppm[static_cast<std::size_t>(r)]);
    m.stage(r, wav[static_cast<std::size_t>(r)]);
    m.stage(r, nb[static_cast<std::size_t>(r)]);
  }
  m.run_for(sec(2));
  const SimTime t0 = m.now();
  m.ioctl_all(driver::TraceLevel::kStandard);
  for (int r = 0; r < nodes; ++r) {
    m.spawn_rank(r, std::move(ppm[static_cast<std::size_t>(r)]), r);
    m.spawn_rank(r, std::move(wav[static_cast<std::size_t>(r)]), nodes + r);
    m.spawn_rank(r, std::move(nb[static_cast<std::size_t>(r)]),
                 2 * nodes + r);
  }
  out.completed = m.run_until_all_done(t0 + scfg.max_run_time);
  m.run_for(sec(35));  // the study's post-completion daemon tail
  m.ioctl_all(driver::TraceLevel::kOff);
  out.traces = m.collect("pdes combined", t0);
  out.stats = m.fabric().stats();
  out.shards = m.shard_count();
  return out;
}

}  // namespace ess::pvm
