// The experiment-matrix executor: named, self-contained study runs fanned
// out with exec::parallel_for.
//
// One JobSpec is one experiment cell — a StudyConfig (hardware, workloads,
// fault plan) plus which canonical experiment to run, optionally streaming
// the drain-side record stream into an ESST capture file. run_jobs()
// builds a fresh core::Study per job (own sim::Engine, own NodeKernel,
// own FaultInjector, own sinks), so jobs share nothing mutable and the
// parallel output — traces, captures, summaries — is bit-identical to a
// serial loop over the same specs. The repository benchmark's paper_study
// workload, the fault-matrix suite, and `esstrace capture-all` all drive
// their matrices through this.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "core/study.hpp"

namespace ess::exec {

/// The canonical single-node experiments of the paper.
enum class Experiment { kBaseline, kPpm, kWavelet, kNBody, kCombined };

const char* to_string(Experiment e);

/// Parse a canonical experiment name ("baseline" ... "combined").
/// Returns false and leaves `out` untouched on anything else.
bool experiment_from_name(const std::string& name, Experiment& out);

/// Every canonical experiment, in the paper's presentation order.
const std::vector<Experiment>& all_experiments();

/// Invoke `e` on `study` (the switch every driver used to hand-roll).
core::RunResult run_experiment(core::Study& study, Experiment e);

struct JobSpec {
  std::string name;
  core::StudyConfig config;
  Experiment experiment = Experiment::kBaseline;

  /// Non-empty: stream the drain records into an indexed ESST capture at
  /// this path (meta carries name/seed/RAM, as `esstrace capture` writes).
  std::string esst_path;

  /// Set: runs instead of `experiment` — for ablations and custom
  /// workloads that need run_custom() or several runs in one job.
  std::function<core::RunResult(core::Study&)> body;
};

struct JobOutcome {
  std::string name;
  core::RunResult run;
  double wall_seconds = 0;       // host time for this job alone
  std::string esst_path;         // empty when no capture was requested
  bool esst_failed = false;      // the capture sink latched a write error
  std::string esst_error;
};

/// Run every spec on `workers` threads, the calling thread among them
/// (0 or 1 = serial on the caller; results and captures are identical
/// either way). Outcomes return in submission order. The first job
/// exception (by submission index) propagates after all jobs finish.
std::vector<JobOutcome> run_jobs(const std::vector<JobSpec>& specs,
                                 std::size_t workers);

}  // namespace ess::exec
