// Trace characterization: the metrics of the paper's Section 4.
//
// "A number of metrics were used ... including I/O request size, the
// distribution of requests by disk sectors, and the average time between
// consecutive accesses to the same sector. Spatial locality ... from the
// distribution of requests by sector number, and temporal locality ...
// from the time elapsed between accesses to a particular sector."
//
// One engine computes them: characterize() folds a finished trace through
// the same telemetry::StreamSummary that `esstrace stats`, the live sinks
// and the parallel ESST scan run, so offline, streamed and scanned
// characterizations cannot drift apart. Read the fold's consumers for the
// read/write mix (rw()), the request-size classes (sizes()), the Fig. 7
// sector bands (spatial().bands()) and the hot sectors (hot().top(k)).
// The helpers below derive what no consumer holds.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "telemetry/consumers.hpp"
#include "trace/trace_set.hpp"

namespace ess::analysis {

/// Every record of `ts` through a StreamSummary, finished at ts.duration().
/// The top-K holds max(ts.size(), 1) counters — at least one per distinct
/// sector — so its hot-sector counts are exact frequencies on any trace.
telemetry::StreamSummary characterize(const trace::TraceSet& ts);

/// Table 1 row: read/write mix and request rate.
struct RwMix {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  double read_pct = 0;
  double write_pct = 0;
  double requests_per_sec = 0;
  std::uint64_t total = 0;
};

/// (time, size, is_write) points for the request-size-vs-time figures.
struct SizePoint {
  double t_sec;
  double size_kb;
  bool is_write;
};
std::vector<SizePoint> size_time_series(const trace::TraceSet& ts);

/// (time, sector, is_write) points for the sector-vs-time figures.
struct SectorPoint {
  double t_sec;
  double sector;
  bool is_write;
};
std::vector<SectorPoint> sector_time_series(const trace::TraceSet& ts);

/// Temporal locality (Fig. 8): per-sector access frequency (accesses per
/// second averaged over the capture duration; 0 on a zero-length capture),
/// ascending by sector. Only sectors with at least `min_accesses` appear.
/// Reads the fold's per-sector counts, exact for a characterize() fold.
struct SectorFrequency {
  std::uint64_t sector = 0;
  std::uint64_t accesses = 0;
  double per_sec = 0;
};
std::vector<SectorFrequency> temporal_locality(
    const telemetry::StreamSummary& c, std::uint64_t min_accesses = 2);

/// Mean time between consecutive accesses to the same sector, over sectors
/// accessed at least twice.
double mean_reuse_gap_sec(const trace::TraceSet& ts);

/// "Almost follows the 90/10 rule": the smallest fraction of
/// `total_sectors` sectors whose (hottest-first) accesses cover `coverage`
/// of all requests. The default is the whole disk; pass
/// `c.hot().distinct_tracked()` to measure against the accessed set alone.
double disk_fraction_for_coverage(const telemetry::StreamSummary& c,
                                  double coverage,
                                  std::uint64_t total_sectors = 1'018'080);

/// Summary block used by Table 1 and EXPERIMENTS.md: a projection of
/// characterize(ts).
struct TraceSummary {
  std::string experiment;
  RwMix mix;
  double pct_1k = 0;
  double pct_2k = 0;
  double pct_4k = 0;
  double pct_ge_8k = 0;
  double pct_ge_16k = 0;
  std::uint32_t max_request_bytes = 0;
  double duration_sec = 0;
};
TraceSummary summarize(const trace::TraceSet& ts);

}  // namespace ess::analysis
