// Extension E-cluster: per-disk averages across cluster nodes.
//
// The paper's Table 1 reports per-disk averages over the 16-node Beowulf.
// This harness runs the baseline on several nodes with per-node jitter and
// reports the averaged row plus the node-to-node spread. (Node count is 4
// by default so the binary stays quick; set ESS_NODES=16 for the full
// machine.)
#include <cstdio>
#include <cstdlib>

#include "bench/common.hpp"
#include "bench/targets.hpp"
#include "cluster/cluster.hpp"
#include "exec/thread_pool.hpp"

int ext_cluster_average() {
  using namespace ess;
  int nodes = 4;
  if (const char* v = std::getenv("ESS_NODES")) {
    const auto n = exec::parse_digits(v);
    if (!n || *n > 1'000'000) {
      std::fprintf(stderr, "ext_cluster_average: invalid ESS_NODES '%s'\n",
                   v);
      return 2;
    }
    nodes = static_cast<int>(*n);
  }
  if (nodes < 1) nodes = 1;

  cluster::ClusterConfig cfg;
  cfg.nodes = nodes;
  cfg.study = bench::study_config();
  if (bench::fast_mode()) cfg.study.baseline_duration = sec(200);

  cluster::Cluster cluster(cfg);
  const auto result = cluster.run_baseline();

  std::printf("Cluster baseline, %d nodes (per-disk averages):\n", nodes);
  std::printf("  avg req/s: %.2f   avg writes: %.0f%%   avg total: %llu\n",
              result.average.mix.requests_per_sec,
              result.average.mix.write_pct,
              static_cast<unsigned long long>(result.average.mix.total));

  std::printf("  per-node totals: ");
  std::uint64_t lo = ~0ull, hi = 0;
  for (const auto& t : result.node_traces) {
    std::printf("%zu ", t.size());
    lo = std::min<std::uint64_t>(lo, t.size());
    hi = std::max<std::uint64_t>(hi, t.size());
  }
  std::printf("\n");

  std::printf("\nChecks:\n");
  bool ok = true;
  ok &= bench::check("every node writes-only at baseline",
                     result.average.mix.read_pct < 0.5,
                     bench::fmt("%.2f%% reads", result.average.mix.read_pct));
  ok &= bench::check("node-to-node spread is modest (same behaviour)",
                     static_cast<double>(hi) < 1.5 * static_cast<double>(lo),
                     bench::fmt("spread %.2fx", static_cast<double>(hi) /
                                                    static_cast<double>(lo)));
  return ok ? 0 : 1;
}
