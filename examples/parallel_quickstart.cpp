// Parallel quickstart: one SPMD job (the PPM solver with ghost-row
// exchange) on a small simulated Beowulf, showing the cluster API —
// pdes::Machine, its message fabric, and the pvm:: parallel workload
// generators.
//
//   ./parallel_quickstart [nodes]   (default 4)
#include <cstdio>
#include <cstdlib>

#include "analysis/report.hpp"
#include "pdes/machine.hpp"
#include "pvm/parallel_apps.hpp"

int main(int argc, char** argv) {
  using namespace ess;
  const int nodes = argc > 1 ? std::atoi(argv[1]) : 4;

  pdes::MachineConfig mcfg;  // default node config, one shard run inline
  mcfg.nodes = nodes;
  pdes::Machine m(mcfg);
  m.fabric().set_world_size(nodes);

  apps::ppm::PpmConfig cfg;  // the paper's per-processor problem size
  Rng rng(42);
  auto ranks = pvm::parallel_ppm(cfg, nodes, mcfg.node.cpu_mflops, rng);

  for (int r = 0; r < nodes; ++r) {
    m.stage(r, ranks[static_cast<std::size_t>(r)]);
  }
  m.run_for(sec(2));
  const SimTime t0 = m.now();
  m.ioctl_all(driver::TraceLevel::kStandard);
  for (int r = 0; r < nodes; ++r) {
    m.spawn_rank(r, std::move(ranks[static_cast<std::size_t>(r)]), r);
  }
  const bool done = m.run_until_all_done(t0 + sec(6000));
  m.run_for(sec(35));
  m.ioctl_all(driver::TraceLevel::kOff);

  std::printf("parallel PPM on %d nodes: %s in %.0f s (virtual)\n", nodes,
              done ? "completed" : "capped", to_seconds(m.now() - t0));
  const auto fs = m.fabric().stats();
  std::printf("fabric: %llu messages, %.1f MB, %llu barriers\n\n",
              static_cast<unsigned long long>(fs.sends),
              static_cast<double>(fs.bytes) / 1e6,
              static_cast<unsigned long long>(fs.barriers_completed));

  auto traces = m.collect("parallel-ppm", t0);
  std::vector<analysis::TraceSummary> rows;
  for (auto& t : traces) rows.push_back(analysis::summarize(t));
  for (int r = 0; r < nodes; ++r) {
    rows[static_cast<std::size_t>(r)].experiment =
        "node " + std::to_string(r);
  }
  std::printf("%s\n", analysis::render_table1(rows).c_str());
  std::printf("(node 0 carries the output-file role: its disk is busier)\n");
  return 0;
}
