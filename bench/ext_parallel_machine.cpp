// Extension E-parallel: the combined experiment as true SPMD programs on
// the cluster machine (pvm::run_combined on one shard, inline).
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
#include "exec/thread_pool.hpp"
#include "pvm/combined.hpp"

int ext_parallel_machine() {
  using namespace ess;
  int nodes = 4;
  if (const char* v = std::getenv("ESS_NODES")) {
    const auto n = exec::parse_digits(v);
    if (!n || *n > 1'000'000) {
      std::fprintf(stderr, "ext_parallel_machine: invalid ESS_NODES '%s'\n",
                   v);
      return 2;
    }
    nodes = static_cast<int>(*n);
  }
  if (nodes < 2) nodes = 2;

  const auto run = pvm::run_combined(bench::study_config(), nodes, 1, 1);
  const auto& traces = run.traces;

  std::vector<analysis::TraceSummary> rows;
  for (auto& t : traces) rows.push_back(analysis::summarize(t));
  auto avg = cluster::average_summaries(rows);
  avg.experiment = "Parallel combined";

  std::printf("Parallel combined load on %d nodes (run %s, %.0f s):\n\n",
              nodes, run.completed ? "completed" : "CAPPED",
              to_seconds(traces[0].duration()));
  std::printf("%s\n", analysis::render_table1({avg}).c_str());
  std::printf("  per-node totals: ");
  for (const auto& t : traces) std::printf("%zu ", t.size());
  std::printf("\n");
  const auto& fs = run.stats;
  std::printf("  fabric: %llu msgs, %.1f MB, %llu barriers, NIC busy %.0f s\n\n",
              static_cast<unsigned long long>(fs.sends),
              static_cast<double>(fs.bytes) / 1e6,
              static_cast<unsigned long long>(fs.barriers_completed),
              to_seconds(fs.nic_busy));

  bool ok = true;
  ok &= bench::check("run completes", run.completed, "");
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
