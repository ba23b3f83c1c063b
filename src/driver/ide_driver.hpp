// The instrumented IDE block device driver.
//
// This is the paper's probe point: the read/write handlers of the IDE
// driver. Every physical request submitted to the drive produces one trace
// record (timestamp, sector, R/W flag, outstanding count) pushed into the
// procfs ring buffer, when instrumentation is enabled via ioctl.
//
// The driver is also the recovery layer: a request the drive fails with a
// transient error is re-issued after an exponential backoff, up to the
// retry policy's bound — the classic ide.c behavior. Media errors (bad
// sectors) and exhausted retries complete the request with its error
// status set; the error is counted in DriverStats and, at
// TraceLevel::kVerbose, recorded in the trace stream (each re-issue emits
// its own record, as a real instrumented handler would see).
#pragma once

#include <cstdint>

#include "disk/drive.hpp"
#include "fault/fault.hpp"
#include "telemetry/sink.hpp"
#include "trace/ring_buffer.hpp"
#include "util/small_function.hpp"

namespace ess::driver {

/// Instrumentation levels selected through the ioctl interface; the paper
/// toggles tracing without rebooting the cluster.
enum class TraceLevel : std::uint8_t {
  kOff = 0,       // no records
  kStandard = 1,  // one record per physical request (the paper's mode)
  kVerbose = 2,   // adds completion + error/re-issue records per request
};

struct DriverStats {
  std::uint64_t requests_issued = 0;
  std::uint64_t trace_records = 0;
  std::uint64_t max_request_bytes = 0;
  // Error-path accounting (all zero on a healthy drive).
  std::uint64_t transient_errors = 0;  // attempts failed retryably
  std::uint64_t media_errors = 0;      // attempts failed permanently
  std::uint64_t retries = 0;           // re-issues scheduled
  std::uint64_t failed_requests = 0;   // completed with an error status
};

class IdeDriver {
 public:
  /// `trace_buf` may be null when the driver is built without
  /// instrumentation (the non-instrumented kernel).
  IdeDriver(disk::Drive& drive, trace::RingBuffer* trace_buf);

  /// The one completion type of the I/O stack: the buffer cache, the swap
  /// manager and the VM pass it down unwrapped.
  using Completion = SmallFunction<void()>;

  /// Submit a physical request of `sector_count` sectors at `sector`.
  /// The trace record is emitted at issue time, as in the paper (the
  /// handlers were instrumented where the request is sent to the drive).
  void submit(std::uint64_t sector, std::uint32_t sector_count, disk::Dir dir,
              Completion done = {});

  /// The ioctl(TRACE_*) interface.
  void ioctl_set_trace_level(TraceLevel level) { level_ = level; }
  TraceLevel trace_level() const { return level_; }

  /// Bounded-retry policy for transient drive errors.
  void set_retry_policy(fault::DriverRetryPolicy policy) { retry_ = policy; }
  const fault::DriverRetryPolicy& retry_policy() const { return retry_; }

  /// Live telemetry tap: every record emitted while tracing is on is also
  /// published here, at emission time — streaming consumers see the run in
  /// flight instead of waiting for the ring buffer to be drained and
  /// collected. May be null (no live consumers attached).
  void set_sink(telemetry::Sink* sink) { sink_ = sink; }
  telemetry::Sink* sink() const { return sink_; }

  const DriverStats& stats() const { return stats_; }
  disk::Drive& drive() { return drive_; }

 private:
  void issue(std::uint64_t sector, std::uint32_t sector_count, disk::Dir dir,
             Completion done, std::uint32_t attempt);
  void emit(std::uint64_t sector, std::uint32_t sector_count, disk::Dir dir,
            std::size_t outstanding);

  disk::Drive& drive_;
  trace::RingBuffer* trace_buf_;
  telemetry::Sink* sink_ = nullptr;
  TraceLevel level_ = TraceLevel::kStandard;
  fault::DriverRetryPolicy retry_;
  DriverStats stats_;
};

}  // namespace ess::driver
