// The 16-node cluster runner.
//
// The paper reports per-disk averages across the Beowulf's 16 subsystems.
// Each node runs the same experiment with its own RNG stream (per-node
// jitter in daemon timing and workload sampling) and a PVM-style startup
// barrier (the applications synchronize before computing); the runner
// aggregates the per-node traces and summaries.
#pragma once

#include <string>
#include <vector>

#include "analysis/characterize.hpp"
#include "cluster/ethernet.hpp"
#include "core/study.hpp"
#include "exec/experiments.hpp"
#include "trace/trace_set.hpp"

namespace ess::cluster {

struct ClusterConfig {
  int nodes = 16;
  /// Every node's study; nodes run concurrently, so it must hold no sinks.
  core::StudyConfig study;
  EthernetConfig ethernet;
};

struct ClusterRunResult {
  std::vector<trace::TraceSet> node_traces;
  /// Per-disk average of the Table-1 metrics (mean over nodes).
  analysis::TraceSummary average;
  /// All nodes' records merged (for cluster-wide locality analysis).
  trace::TraceSet merged;
};

class Cluster {
 public:
  explicit Cluster(ClusterConfig cfg);

  ClusterRunResult run_baseline();
  ClusterRunResult run_single(core::AppKind kind);
  ClusterRunResult run_combined();

  const ClusterConfig& config() const { return cfg_; }

 private:
  /// Run `e` on every node, each an independent Study, over
  /// exec::default_workers() threads; results merge in node order.
  ClusterRunResult run_on_all(const std::string& name, exec::Experiment e);

  ClusterConfig cfg_;
  EthernetModel net_;
};

/// Mean of per-node summaries (requests averaged per disk, as in Table 1).
analysis::TraceSummary average_summaries(
    const std::vector<analysis::TraceSummary>& xs);

}  // namespace ess::cluster
