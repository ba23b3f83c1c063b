// The Drive: queueing + head state + engine integration.
//
// submit() enqueues a request; the drive services one request at a time,
// advancing virtual time by the service model's estimate and invoking the
// completion callback on the engine.
#pragma once

#include <cstdint>
#include <memory>

#include "disk/request.hpp"
#include "disk/scheduler.hpp"
#include "disk/service_model.hpp"
#include "fault/fault.hpp"
#include "sim/engine.hpp"
#include "util/flat_map.hpp"
#include "util/small_function.hpp"

namespace ess::disk {

struct DriveStats {
  std::uint64_t requests = 0;
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t sectors_read = 0;
  std::uint64_t sectors_written = 0;
  std::uint64_t merged = 0;       // requests absorbed by queue merging
  SimTime busy_time = 0;
  SimTime total_queue_delay = 0;  // submit -> service start
  // Injected-fault accounting (zero without a fault injector attached).
  std::uint64_t transient_errors = 0;
  std::uint64_t media_errors = 0;
  SimTime fault_delay = 0;        // latency spikes + stall windows
};

class Drive {
 public:
  /// Sized to hold the driver's completion wrapper (the driver's own
  /// callback plus its retry state) inline; ide_driver.cpp checks it.
  using Completion = SmallFunction<void(const Request&), 96>;

  /// `max_merge_sectors` > 0 enables ll_rw_blk-style queue merging: a new
  /// request physically adjacent to a queued one of the same direction is
  /// absorbed into it (capped at that many sectors). 0 disables merging —
  /// the study's default, since the paper's probe point records requests
  /// before the queue.
  Drive(sim::Engine& engine, ServiceModel model,
        SchedulerKind sched = SchedulerKind::kElevator,
        std::uint32_t max_merge_sectors = 0);

  /// Enqueue a request. `done` fires (via the engine) when it completes;
  /// it may be empty for fire-and-forget writes.
  /// Returns the request id assigned by the drive.
  std::uint64_t submit(Request req, Completion done = {});

  /// Requests queued or in flight.
  std::size_t outstanding() const { return pending_; }

  /// Attach a fault injector (not owned; may be null). Each request's
  /// service consults it once, at service start: the outcome can add
  /// latency (spike, whole-drive stall) and/or fail the request, which is
  /// then reported through Request::status at completion.
  void set_fault_injector(fault::FaultInjector* fi) { faults_ = fi; }
  fault::FaultInjector* fault_injector() const { return faults_; }

  const DriveStats& stats() const { return stats_; }
  const ServiceModel& model() const { return model_; }

  /// The kernel clock at this drive's node.
  SimTime now() const { return engine_.now(); }
  sim::Engine& engine() { return engine_; }

 private:
  void start_next();

  sim::Engine& engine_;
  ServiceModel model_;
  fault::FaultInjector* faults_ = nullptr;
  std::unique_ptr<Scheduler> sched_;
  std::uint32_t max_merge_sectors_;
  // By request id. A merged request's entry runs its own callback, then
  // each absorbed submission's, in submission order.
  util::FlatMap<std::uint64_t, Completion> completions_;
  std::uint64_t next_id_ = 1;
  std::uint64_t head_sector_ = 0;
  bool busy_ = false;
  std::size_t pending_ = 0;
  DriveStats stats_;
};

}  // namespace ess::disk
