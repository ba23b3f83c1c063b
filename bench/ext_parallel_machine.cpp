// Extension E-parallel: the combined experiment as true SPMD programs on
// the shared-clock machine.
//
// The paper's applications were PVM programs across the Beowulf's nodes;
// Table 1 reports per-disk averages. This harness runs the three parallel
// workloads simultaneously on an N-node machine (PPM, wavelet, and N-body
// each spanning all nodes, as the production mix did), captures every
// node's disk trace, and reports the per-disk average row plus the
// communication profile. ESS_NODES overrides the node count (default 4;
// 16 = the full prototype).
#include <cstdio>
#include <cstdlib>

#include "analysis/report.hpp"
#include "bench/common.hpp"
#include "bench/targets.hpp"
#include "cluster/cluster.hpp"
#include "pvm/machine.hpp"
#include "pvm/parallel_apps.hpp"

int ext_parallel_machine() {
  using namespace ess;
  int nodes = 4;
  if (const char* v = std::getenv("ESS_NODES")) nodes = std::atoi(v);
  if (nodes < 2) nodes = 2;

  core::StudyConfig scfg = bench::study_config();
  kernel::KernelConfig node_cfg = scfg.node;
  node_cfg.max_coalesce_blocks = scfg.combined_coalesce_blocks;
  node_cfg.readahead_ceiling_blocks = scfg.combined_readahead_blocks;

  pvm::Machine m(nodes, node_cfg);
  Rng rng(scfg.seed);
  auto ppm = pvm::parallel_ppm(scfg.ppm, nodes, node_cfg.cpu_mflops, rng);
  auto wav =
      pvm::parallel_wavelet(scfg.wavelet, nodes, node_cfg.cpu_mflops, rng);
  auto nb = pvm::parallel_nbody(scfg.nbody, nodes, node_cfg.cpu_mflops, rng);

  // Three SPMD jobs of `nodes` ranks each: ranks are globally numbered
  // and each job's barriers live in their own group.
  for (int r = 0; r < nodes; ++r) {
    pvm::retarget(wav[static_cast<std::size_t>(r)], nodes, 1);
    pvm::retarget(nb[static_cast<std::size_t>(r)], 2 * nodes, 2);
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
  const bool done = m.run_until_all_done(t0 + sec(20'000));
  m.run_for(sec(35));
  m.ioctl_all(driver::TraceLevel::kOff);
  auto traces = m.collect("Parallel combined", t0);

  std::vector<analysis::TraceSummary> rows;
  for (auto& t : traces) rows.push_back(analysis::summarize(t));
  const auto avg = cluster::average_summaries(rows);

  std::printf("Parallel combined load on %d nodes (run %s, %.0f s):\n\n",
              nodes, done ? "completed" : "CAPPED",
              to_seconds(traces[0].duration()));
  std::printf("%s\n", analysis::render_table1({avg}).c_str());
  std::printf("  per-node totals: ");
  for (const auto& t : traces) std::printf("%zu ", t.size());
  std::printf("\n");
  const auto& fs = m.fabric().stats();
  std::printf("  fabric: %llu msgs, %.1f MB, %llu barriers, wire busy %.0f s\n\n",
              static_cast<unsigned long long>(fs.sends),
              static_cast<double>(fs.bytes) / 1e6,
              static_cast<unsigned long long>(fs.barriers_completed),
              to_seconds(fs.wire_busy));

  bool ok = true;
  ok &= bench::check("run completes", done, "");
  ok &= bench::check("every node's disk sees traffic",
                     [&] {
                       for (const auto& t : traces) {
                         if (t.empty()) return false;
                       }
                       return true;
                     }(),
                     "");
  // Rank 0's node carries the file-I/O roles: most requests.
  std::size_t max_other = 0;
  for (std::size_t i = 1; i < traces.size(); ++i) {
    max_other = std::max(max_other, traces[i].size());
  }
  ok &= bench::check("node 0 (file-I/O ranks) is the busiest disk",
                     traces[0].size() >= max_other,
                     bench::fmt("%.0f", static_cast<double>(traces[0].size())) +
                         " vs " +
                         bench::fmt("%.0f", static_cast<double>(max_other)));
  ok &= bench::check("writes dominate the per-disk average",
                     avg.mix.write_pct > 50.0,
                     bench::fmt("%.1f%%", avg.mix.write_pct));
  return ok ? 0 : 1;
}
