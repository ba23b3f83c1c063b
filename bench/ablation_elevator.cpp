// Ablation A3: disk scheduling discipline under the combined load.
//
// The paper's traces were taken above Linux's elevator; this ablation
// quantifies what the elevator buys on this workload (queue delay and run
// time) against FIFO — a design-implication experiment of the kind the
// paper's "parameter set for system design and tuning" next step proposes.
#include <cstdio>

#include "analysis/characterize.hpp"
#include "bench/common.hpp"
#include "bench/targets.hpp"

int ablation_elevator() {
  using namespace ess;

  struct Result {
    double run_s;
    double rate;
  };
  auto run_with = [&](disk::SchedulerKind kind) {
    core::StudyConfig cfg = bench::study_config();
    cfg.node.disk_scheduler = kind;
    core::Study study(cfg);
    const auto r = study.run_combined();
    return Result{to_seconds(r.trace.duration()),
                  analysis::characterize(r.trace).rw().requests_per_sec()};
  };

  const Result elevator = run_with(disk::SchedulerKind::kElevator);
  const Result fifo = run_with(disk::SchedulerKind::kFifo);

  std::printf("Ablation: disk scheduler under the combined load\n");
  std::printf("  elevator: run %7.1f s, %6.2f req/s\n", elevator.run_s,
              elevator.rate);
  std::printf("  FIFO:     run %7.1f s, %6.2f req/s\n", fifo.run_s,
              fifo.rate);
  std::printf("  elevator speedup: %.2fx\n", fifo.run_s / elevator.run_s);

  std::printf("\nChecks:\n");
  // The combined run is paging-bound; seek-optimised scheduling should not
  // hurt and usually helps.
  const bool ok = bench::check("elevator no slower than FIFO",
                               elevator.run_s <= fifo.run_s * 1.02,
                               bench::fmt("%.2fx", fifo.run_s / elevator.run_s));
  return ok ? 0 : 1;
}
