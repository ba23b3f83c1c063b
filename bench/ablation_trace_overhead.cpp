// Ablation A1: instrumentation overhead.
//
// Paper: "(Note: I/O instrumentation did not measurably change the
// execution time of any of the applications.)" We rerun PPM with the
// driver instrumentation off, standard, and verbose, and compare virtual
// run times. In the model the trace records themselves are free at capture
// (kernel buffer append) but their drainage to the trace file adds write
// load — exactly the effect the paper calls out as present-but-negligible
// for run time.
#include <cstdio>

#include "analysis/characterize.hpp"
#include "bench/common.hpp"
#include "bench/targets.hpp"
#include "kernel/node_kernel.hpp"

namespace {

ess::SimTime timed_run(ess::core::Study& study, ess::driver::TraceLevel lvl) {
  using namespace ess;
  kernel::NodeKernel node(study.config().node);
  const auto& trace = study.artifacts().ppm.trace;
  node.stage(trace);
  node.fsys().sync();
  node.run_for(sec(2));
  const SimTime t0 = node.now();
  node.ioctl_trace(lvl);
  node.spawn(trace);
  node.run_until_done(t0 + sec(6000));
  return node.now() - t0;
}

}  // namespace

int ablation_trace_overhead() {
  using namespace ess;
  core::Study study(bench::study_config());
  study.artifacts();

  const SimTime off = timed_run(study, driver::TraceLevel::kOff);
  const SimTime standard = timed_run(study, driver::TraceLevel::kStandard);
  const SimTime verbose = timed_run(study, driver::TraceLevel::kVerbose);

  std::printf("Ablation: instrumentation overhead (PPM run time)\n");
  std::printf("  trace off:      %10.3f s\n", to_seconds(off));
  std::printf("  trace standard: %10.3f s  (%+.3f%%)\n", to_seconds(standard),
              100.0 * (static_cast<double>(standard) - static_cast<double>(off)) /
                  static_cast<double>(off));
  std::printf("  trace verbose:  %10.3f s  (%+.3f%%)\n", to_seconds(verbose),
              100.0 * (static_cast<double>(verbose) - static_cast<double>(off)) /
                  static_cast<double>(off));

  std::printf("\nPaper-vs-measured checks:\n");
  bool ok = true;
  const double overhead =
      std::abs(static_cast<double>(standard) - static_cast<double>(off)) /
      static_cast<double>(off);
  ok &= bench::check(
      "instrumentation does not measurably change execution time",
      overhead < 0.02, bench::fmt("%.3f%% overhead", 100 * overhead));
  return ok ? 0 : 1;
}
