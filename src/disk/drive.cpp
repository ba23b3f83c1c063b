#include "disk/drive.hpp"

#include <stdexcept>
#include <utility>

namespace ess::disk {

Drive::Drive(sim::Engine& engine, ServiceModel model, SchedulerKind sched,
             std::uint32_t max_merge_sectors)
    : engine_(engine),
      model_(std::move(model)),
      sched_(make_scheduler(sched)),
      max_merge_sectors_(max_merge_sectors) {}

std::uint64_t Drive::submit(Request req, Completion done) {
  if (req.sector_count == 0) throw std::invalid_argument("empty disk request");
  if (req.end_sector() > model_.geometry().total_sectors()) {
    throw std::out_of_range("disk request beyond end of device");
  }
  req.id = next_id_++;
  req.issue_time = engine_.now();
  if (max_merge_sectors_ > 0) {
    if (const auto host = sched_->try_merge(req, max_merge_sectors_)) {
      ++stats_.merged;
      if (done) {
        Completion& host_done = completions_[*host];
        if (!host_done) {
          host_done = std::move(done);
        } else {
          host_done = [first = std::move(host_done),
                       then = std::move(done)](const Request& r) mutable {
            first(r);
            then(r);
          };
        }
      }
      return *host;  // absorbed: completes with the host request
    }
  }
  if (done) completions_[req.id] = std::move(done);
  sched_->push(req);
  ++pending_;
  if (!busy_) start_next();
  return req.id;
}

void Drive::start_next() {
  const auto next = sched_->pop(head_sector_);
  if (!next) {
    busy_ = false;
    return;
  }
  busy_ = true;
  Request req = *next;
  const SimTime start = engine_.now();
  SimTime dur = model_.service_time(
      req, start, model_.geometry().cylinder_of(head_sector_));

  if (faults_ != nullptr) {
    const auto outcome = faults_->on_disk_request(
        req.sector, req.sector_count, req.dir == Dir::kWrite, start);
    dur += outcome.extra_latency;
    stats_.fault_delay += outcome.extra_latency;
    switch (outcome.kind) {
      case fault::DiskFaultKind::kTransient:
        req.status = IoStatus::kTransientError;
        ++stats_.transient_errors;
        break;
      case fault::DiskFaultKind::kMedia:
        req.status = IoStatus::kMediaError;
        ++stats_.media_errors;
        break;
      case fault::DiskFaultKind::kNone:
        break;
    }
  }

  stats_.requests++;
  stats_.total_queue_delay += start - req.issue_time;
  if (req.dir == Dir::kRead) {
    stats_.reads++;
    stats_.sectors_read += req.sector_count;
  } else {
    stats_.writes++;
    stats_.sectors_written += req.sector_count;
  }
  stats_.busy_time += dur;

  engine_.schedule_after(dur, [this, req] {
    head_sector_ = req.end_sector() - 1;
    --pending_;
    if (Completion* c = completions_.find(req.id)) {
      Completion done = std::move(*c);
      completions_.erase(req.id);
      done(req);
    }
    start_next();
  });
}

}  // namespace ess::disk
