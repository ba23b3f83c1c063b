// Trace-driven replay: feed a captured trace back through a configurable
// disk model. This is the paper's proposed use of the measured data — "a
// parameter set that can be used for system design and tuning of parallel
// systems" — turned into a tool: evaluate a different drive, scheduler, or
// queue-merging policy against the real arrival process without rerunning
// the applications.
#pragma once

#include <cstdint>
#include <vector>

#include "disk/drive.hpp"
#include "trace/trace_set.hpp"
#include "util/stats.hpp"

namespace ess::replay {

struct ReplayConfig {
  disk::ServiceParams disk;
  disk::SchedulerKind scheduler = disk::SchedulerKind::kElevator;
  std::uint32_t max_merge_sectors = 0;  // 0 = no queue merging
};

struct ReplayResult {
  std::uint64_t requests = 0;
  std::uint64_t merged = 0;
  SimTime makespan = 0;          // arrival of first -> completion of last
  SimTime disk_busy = 0;
  double utilization = 0;        // busy / makespan
  OnlineStats response_ms;       // submit -> completion, per request
  std::vector<double> response_times_ms;  // the same, in completion order

  double mean_response_ms() const { return response_ms.mean(); }
  /// Exact 95th percentile of the per-request response times.
  double p95_response_ms() const {
    return percentile(response_times_ms, 95);
  }
};

/// Replay every record of `ts` at its original timestamp against a fresh
/// drive configured by `cfg`.
ReplayResult replay(const trace::TraceSet& ts, const ReplayConfig& cfg);

}  // namespace ess::replay
