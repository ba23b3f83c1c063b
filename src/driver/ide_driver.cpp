#include "driver/ide_driver.hpp"

#include <algorithm>

namespace ess::driver {

IdeDriver::IdeDriver(disk::Drive& drive, trace::RingBuffer* trace_buf)
    : drive_(drive), trace_buf_(trace_buf) {}

void IdeDriver::submit(std::uint64_t sector, std::uint32_t sector_count,
                       disk::Dir dir, Completion done) {
  ++stats_.requests_issued;
  stats_.max_request_bytes =
      std::max<std::uint64_t>(stats_.max_request_bytes,
                              std::uint64_t{sector_count} * disk::kSectorSize);
  // "a count of the remaining I/O requests to be processed": includes the
  // request being issued.
  emit(sector, sector_count, dir, drive_.outstanding() + 1);
  issue(sector, sector_count, dir, std::move(done), 1);
}

void IdeDriver::issue(std::uint64_t sector, std::uint32_t sector_count,
                      disk::Dir dir, Completion done, std::uint32_t attempt) {
  disk::Request req;
  req.sector = sector;
  req.sector_count = sector_count;
  req.dir = dir;
  const bool verbose = level_ == TraceLevel::kVerbose &&
                       (trace_buf_ != nullptr || sink_ != nullptr);
  // Without a fault injector requests cannot fail, so the no-callback fast
  // path of the healthy configuration is preserved.
  const bool may_fail = drive_.fault_injector() != nullptr;
  if (!done && !verbose && !may_fail) {
    drive_.submit(req);
    return;
  }
  auto on_done = [this, verbose, attempt,
                  done = std::move(done)](const disk::Request& r) mutable {
    if (r.status == disk::IoStatus::kTransientError) {
      ++stats_.transient_errors;
      if (attempt <= retry_.max_retries) {
        ++stats_.retries;
        // ide.c-style bounded retry: back off, then re-issue. The re-issue
        // is a fresh physical request; at kVerbose it emits its own record
        // (the error made visible in the trace stream).
        const SimTime delay = retry_.backoff << (attempt - 1);
        drive_.engine().schedule_after(
            delay, [this, r, attempt, done = std::move(done)]() mutable {
              if (level_ == TraceLevel::kVerbose) {
                emit(r.sector, r.sector_count, r.dir,
                     drive_.outstanding() + 1);
              }
              issue(r.sector, r.sector_count, r.dir, std::move(done),
                    attempt + 1);
            });
        return;
      }
      // Retries exhausted: the request completes, carrying its error.
      ++stats_.failed_requests;
    } else if (r.status == disk::IoStatus::kMediaError) {
      // Permanent (bad sectors) — re-reading cannot help, as the injector
      // guarantees; fail immediately rather than burning the retry budget.
      ++stats_.media_errors;
      ++stats_.failed_requests;
    }
    if (verbose) emit(r.sector, r.sector_count, r.dir, drive_.outstanding());
    if (done) done();
  };
  static_assert(disk::Drive::Completion::stores_inline<decltype(on_done)>(),
                "the drive must hold the driver's completion without a heap "
                "allocation");
  drive_.submit(req, std::move(on_done));
}

void IdeDriver::emit(std::uint64_t sector, std::uint32_t sector_count,
                     disk::Dir dir, std::size_t outstanding) {
  if (level_ == TraceLevel::kOff ||
      (trace_buf_ == nullptr && sink_ == nullptr)) {
    return;
  }
  trace::Record r;
  // Timestamp is taken inside the driver handler, before queueing delay.
  r.timestamp = drive_.now();
  r.sector = static_cast<std::uint32_t>(sector);
  r.size_bytes = sector_count * disk::kSectorSize;
  r.is_write = dir == disk::Dir::kWrite ? 1 : 0;
  r.outstanding =
      static_cast<std::uint16_t>(std::min<std::size_t>(outstanding, 0xffff));
  if (trace_buf_ != nullptr) trace_buf_->push(r);
  if (sink_ != nullptr) sink_->on_record(r);
  ++stats_.trace_records;
}

}  // namespace ess::driver
