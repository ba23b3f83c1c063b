// Ablation A5: atime updates and the system write stream.
//
// Every read on the study's Linux dirties the file's inode (access-time
// update), adding metadata writes to an otherwise read-only path — one of
// the reasons writes dominate Table 1. This ablation disables atime and
// measures the write share shift on the read-heavy wavelet run.
#include <cstdio>

#include "analysis/characterize.hpp"
#include "bench/common.hpp"
#include "bench/targets.hpp"

int ablation_atime() {
  using namespace ess;

  auto run = [&](bool atime) {
    core::StudyConfig cfg = bench::study_config();
    cfg.node.atime_updates = atime;
    core::Study study(cfg);
    return analysis::summarize(study.run_single(core::AppKind::kWavelet).trace);
  };

  const auto with_atime = run(true);
  const auto no_atime = run(false);

  std::printf("Ablation: atime updates (wavelet run)\n");
  std::printf("                 writes      total requests\n");
  std::printf("  atime on     %6.1f%%      %8llu\n", with_atime.mix.write_pct,
              static_cast<unsigned long long>(with_atime.mix.total));
  std::printf("  atime off    %6.1f%%      %8llu\n", no_atime.mix.write_pct,
              static_cast<unsigned long long>(no_atime.mix.total));

  std::printf("\nChecks:\n");
  bool ok = true;
  ok &= bench::check("disabling atime reduces the write share",
                     no_atime.mix.write_pct <= with_atime.mix.write_pct,
                     bench::fmt("%.1f%%", no_atime.mix.write_pct) + " vs " +
                         bench::fmt("%.1f%%", with_atime.mix.write_pct));
  ok &= bench::check("disabling atime reduces total requests",
                     no_atime.mix.total <= with_atime.mix.total, "");
  return ok ? 0 : 1;
}
