// Ablation A4: memory size vs. the paging request class.
//
// The paper's 4 KB class exists because 16 MB nodes could not hold the
// wavelet code's working set. This ablation sweeps node RAM and shows the
// 4 KB paging share and the run time collapse as memory grows — the
// "performance/cost" trade the paper's introduction motivates.
#include <cstdio>

#include "analysis/characterize.hpp"
#include "bench/common.hpp"
#include "bench/targets.hpp"
#include "util/csv.hpp"

int ablation_memory() {
  using namespace ess;
  CsvWriter csv(bench::out_dir() + "/ablation_memory.csv");
  csv.header({"ram_mb", "pct_4k", "req_per_s", "run_s", "read_pct"});

  std::printf("Ablation: node RAM vs the wavelet paging class\n");
  std::printf("  RAM      %%4KB     req/s    run time\n");

  double prev_4k = 101.0;
  double prev_run = 1e18;
  bool monotone_4k = true;
  bool faster_runs = true;
  for (const std::uint64_t mb : {12u, 16u, 24u, 32u}) {
    core::StudyConfig cfg = bench::study_config();
    cfg.node.ram_bytes = mb * 1024 * 1024;
    core::Study study(cfg);
    const auto r = study.run_single(core::AppKind::kWavelet);
    const auto s = analysis::summarize(r.trace);
    const double run_s = to_seconds(r.trace.duration());
    std::printf("  %2llu MB   %5.1f%%   %6.2f   %7.0f s\n",
                static_cast<unsigned long long>(mb), s.pct_4k,
                s.mix.requests_per_sec, run_s);
    csv.row(mb, s.pct_4k, s.mix.requests_per_sec, run_s, s.mix.read_pct);
    if (mb >= 16) {
      monotone_4k &= s.pct_4k <= prev_4k + 1.0;
      faster_runs &= run_s <= prev_run * 1.05;
    }
    prev_4k = s.pct_4k;
    prev_run = run_s;
  }

  std::printf("\nChecks:\n");
  bool ok = true;
  ok &= bench::check("4 KB paging share falls as RAM grows", monotone_4k, "");
  ok &= bench::check("runs get no slower with more RAM", faster_runs, "");
  return ok ? 0 : 1;
}
