#include "replay/replayer.hpp"

#include <algorithm>
#include <memory>

#include "sim/engine.hpp"

namespace ess::replay {

ReplayResult replay(const trace::TraceSet& ts, const ReplayConfig& cfg) {
  ReplayResult result;
  if (ts.empty()) return result;

  result.response_times_ms.reserve(ts.size());
  sim::Engine engine;
  disk::Drive drive(engine,
                    disk::ServiceModel(disk::beowulf_geometry(), cfg.disk),
                    cfg.scheduler, cfg.max_merge_sectors);

  SimTime last_completion = 0;
  const SimTime first_arrival = ts.records().front().timestamp;

  for (const auto& r : ts.records()) {
    engine.schedule_at(r.timestamp, [&, r] {
      disk::Request req;
      req.sector = r.sector;
      req.sector_count = std::max<std::uint32_t>(1, r.size_bytes / 512);
      req.dir = r.is_write ? disk::Dir::kWrite : disk::Dir::kRead;
      const SimTime submitted = engine.now();
      drive.submit(req, [&, submitted](const disk::Request&) {
        const SimTime now = engine.now();
        const double ms = static_cast<double>(now - submitted) / 1e3;
        result.response_ms.add(ms);
        result.response_times_ms.push_back(ms);
        last_completion = std::max(last_completion, now);
      });
    });
  }
  engine.run();

  result.requests = ts.size();
  result.merged = drive.stats().merged;
  result.makespan = last_completion - first_arrival;
  result.disk_busy = drive.stats().busy_time;
  result.utilization =
      result.makespan > 0
          ? static_cast<double>(result.disk_busy) /
                static_cast<double>(result.makespan)
          : 0.0;
  return result;
}

}  // namespace ess::replay
