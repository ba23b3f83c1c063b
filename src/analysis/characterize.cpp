#include "analysis/characterize.hpp"

#include <algorithm>
#include <unordered_map>

namespace ess::analysis {

telemetry::StreamSummary characterize(const trace::TraceSet& ts) {
  telemetry::StreamSummary::Options opts;
  opts.topk_capacity = std::max<std::size_t>(ts.size(), 1);
  telemetry::StreamSummary c(opts);
  c.on_records(ts.records().data(), ts.size());
  c.on_finish(ts.duration());
  return c;
}

std::vector<SizePoint> size_time_series(const trace::TraceSet& ts) {
  std::vector<SizePoint> out;
  out.reserve(ts.size());
  for (const auto& r : ts.records()) {
    out.push_back(SizePoint{to_seconds(r.timestamp),
                            static_cast<double>(r.size_bytes) / 1024.0,
                            r.is_write != 0});
  }
  return out;
}

std::vector<SectorPoint> sector_time_series(const trace::TraceSet& ts) {
  std::vector<SectorPoint> out;
  out.reserve(ts.size());
  for (const auto& r : ts.records()) {
    out.push_back(SectorPoint{to_seconds(r.timestamp),
                              static_cast<double>(r.sector),
                              r.is_write != 0});
  }
  return out;
}

std::vector<SectorFrequency> temporal_locality(
    const telemetry::StreamSummary& c, std::uint64_t min_accesses) {
  std::vector<SectorFrequency> out;
  for (const auto& e : c.hot().top(c.hot().distinct_tracked())) {
    if (e.count >= min_accesses) {
      out.push_back(SectorFrequency{e.sector, e.count, e.per_sec});
    }
  }
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return a.sector < b.sector;
  });
  return out;
}

double mean_reuse_gap_sec(const trace::TraceSet& ts) {
  std::unordered_map<std::uint64_t, SimTime> last;
  OnlineStats gaps;
  for (const auto& r : ts.records()) {
    const auto it = last.find(r.sector);
    if (it != last.end()) {
      gaps.add(to_seconds(r.timestamp - it->second));
      it->second = r.timestamp;
    } else {
      last.emplace(r.sector, r.timestamp);
    }
  }
  return gaps.mean();
}

double disk_fraction_for_coverage(const telemetry::StreamSummary& c,
                                  double coverage,
                                  std::uint64_t total_sectors) {
  if (c.records() == 0 || total_sectors == 0) return 0.0;
  const double target = coverage * static_cast<double>(c.records());
  double acc = 0;
  std::uint64_t used = 0;
  for (const auto& e : c.hot().top(c.hot().distinct_tracked())) {
    acc += static_cast<double>(e.count);
    ++used;
    if (acc >= target) break;
  }
  return static_cast<double>(used) / static_cast<double>(total_sectors);
}

TraceSummary summarize(const trace::TraceSet& ts) {
  const auto c = characterize(ts);
  const auto& rw = c.rw();
  const auto& sizes = c.sizes();
  TraceSummary s;
  s.experiment = ts.experiment();
  s.mix = RwMix{.reads = rw.reads(),
                .writes = rw.writes(),
                .read_pct = rw.read_pct(),
                .write_pct = rw.write_pct(),
                .requests_per_sec = rw.requests_per_sec(),
                .total = rw.total()};
  s.pct_1k = 100.0 * sizes.fraction(1024);
  s.pct_2k = 100.0 * sizes.fraction(2048);
  s.pct_4k = 100.0 * sizes.fraction(4096);
  s.pct_ge_8k = 100.0 * sizes.fraction_at_least(8 * 1024);
  s.pct_ge_16k = 100.0 * sizes.fraction_at_least(16 * 1024);
  s.max_request_bytes = sizes.max_request_bytes();
  s.duration_sec = to_seconds(c.duration());
  return s;
}

}  // namespace ess::analysis
