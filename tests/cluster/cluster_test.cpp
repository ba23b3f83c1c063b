#include "cluster/cluster.hpp"

#include <gtest/gtest.h>

#include "../core/fast_config.hpp"

namespace ess::cluster {
namespace {

TEST(AverageSummaries, MeansAcrossNodes) {
  analysis::TraceSummary a, b;
  a.experiment = b.experiment = "X";
  a.mix.reads = 10;
  a.mix.writes = 90;
  a.mix.total = 100;
  a.mix.requests_per_sec = 1.0;
  a.pct_1k = 80;
  a.duration_sec = 100;
  b.mix.reads = 30;
  b.mix.writes = 70;
  b.mix.total = 100;
  b.mix.requests_per_sec = 3.0;
  b.pct_1k = 60;
  b.duration_sec = 100;
  const auto avg = average_summaries({a, b});
  EXPECT_EQ(avg.mix.total, 100u);
  EXPECT_DOUBLE_EQ(avg.mix.requests_per_sec, 2.0);
  EXPECT_DOUBLE_EQ(avg.mix.read_pct, 20.0);
  EXPECT_DOUBLE_EQ(avg.pct_1k, 70.0);
  EXPECT_EQ(avg.mix.reads, 20u);
}

TEST(AverageSummaries, EmptyIsDefault) {
  const auto avg = average_summaries({});
  EXPECT_EQ(avg.mix.total, 0u);
}

TEST(Cluster, TwoNodeBaselineAveragesPerDisk) {
  ClusterConfig cfg;
  cfg.nodes = 2;
  cfg.study = test::fast_study_config();
  cfg.study.baseline_duration = sec(90);
  Cluster cluster(cfg);
  const auto result = cluster.run_baseline();
  ASSERT_EQ(result.node_traces.size(), 2u);
  EXPECT_GT(result.average.mix.total, 0u);
  EXPECT_NEAR(result.average.mix.write_pct, 100.0, 1.0);
  // Merged trace holds both nodes' records.
  EXPECT_GE(result.merged.size(), result.node_traces[0].size());
}

TEST(Cluster, NodesDifferButAgreeQualitatively) {
  ClusterConfig cfg;
  cfg.nodes = 3;
  cfg.study = test::fast_study_config();
  cfg.study.baseline_duration = sec(90);
  Cluster cluster(cfg);
  const auto result = cluster.run_baseline();
  // Per-node jitter: traces are not identical across nodes.
  bool all_same = true;
  for (std::size_t i = 1; i < result.node_traces.size(); ++i) {
    if (result.node_traces[i].size() != result.node_traces[0].size()) {
      all_same = false;
    }
  }
  EXPECT_FALSE(all_same);
  for (const auto& t : result.node_traces) {
    const auto mix = analysis::summarize(t).mix;
    EXPECT_EQ(mix.reads, 0u);  // every node: writes only at baseline
  }
}

}  // namespace
}  // namespace ess::cluster
