// Cluster runs of the application experiments (run_single/run_combined
// across nodes with per-node jitter).
#include <gtest/gtest.h>

#include "../core/fast_config.hpp"
#include "cluster/cluster.hpp"

namespace ess::cluster {
namespace {

ClusterConfig two_node_cfg() {
  ClusterConfig cfg;
  cfg.nodes = 2;
  cfg.study = test::fast_study_config();
  return cfg;
}

TEST(ClusterApps, SinglePpmAveragesStayWriteDominated) {
  Cluster cluster(two_node_cfg());
  const auto result = cluster.run_single(core::AppKind::kPpm);
  ASSERT_EQ(result.node_traces.size(), 2u);
  EXPECT_GT(result.average.mix.write_pct, 80.0);
  EXPECT_GT(result.average.mix.total, 0u);
  EXPECT_EQ(result.average.experiment, "PPM");
}

TEST(ClusterApps, CombinedMergedTraceSpansBothNodes) {
  Cluster cluster(two_node_cfg());
  const auto result = cluster.run_combined();
  EXPECT_EQ(result.merged.size(),
            result.node_traces[0].size() + result.node_traces[1].size());
  // Merged records are time-ordered.
  const auto& recs = result.merged.records();
  for (std::size_t i = 1; i < recs.size(); ++i) {
    ASSERT_LE(recs[i - 1].timestamp, recs[i].timestamp);
  }
}

TEST(ClusterApps, StartupBarrierSkewsNodePhases) {
  Cluster with_barrier(two_node_cfg());
  const auto result = with_barrier.run_single(core::AppKind::kPpm);
  // Both nodes still complete and produce comparable volumes.
  const auto a = result.node_traces[0].size();
  const auto b = result.node_traces[1].size();
  EXPECT_GT(a, 0u);
  EXPECT_GT(b, 0u);
}

}  // namespace
}  // namespace ess::cluster
