// Figure 1: I/O Requests (baseline) — sector vs. time with no user
// applications running for 2000 s.
//
// Paper: "I/O accesses concentrated around a few sectors ... consistent
// with logging and table lookup activities ... seen as horizontal lines.
// The predominate I/O request size observed during this period is 1KB."
// Baseline row of Table 1: 0% reads / 100% writes, 0.9 req/s, 1782 total.
#include <cstdio>

#include "analysis/report.hpp"
#include "bench/common.hpp"
#include "bench/targets.hpp"

int fig1_baseline() {
  using namespace ess;
  core::Study study(bench::study_config());
  const auto r = study.run_baseline();
  const auto s = analysis::summarize(r.trace);

  std::printf("%s\n",
              analysis::render_sector_figure(r.trace, "Figure 1. I/O Requests (baseline)")
                  .c_str());
  std::printf("%s\n", analysis::render_size_classes(s).c_str());

  std::printf("Horizontal lines (sectors written repeatedly):\n");
  for (const auto& h : analysis::characterize(r.trace).hot().top(6)) {
    std::printf("  sector %8llu: %llu requests\n",
                static_cast<unsigned long long>(h.sector),
                static_cast<unsigned long long>(h.count));
  }

  analysis::write_sector_series_csv(r.trace,
                                    bench::out_dir() + "/fig1_baseline.csv");

  std::printf("\nPaper-vs-measured checks:\n");
  bool ok = true;
  ok &= bench::check("100% writes (paper: 100%)", s.mix.write_pct > 99.0,
                     bench::fmt("measured %.1f%%", s.mix.write_pct));
  ok &= bench::check("~0.9 req/s (order)", s.mix.requests_per_sec > 0.3 &&
                                               s.mix.requests_per_sec < 2.0,
                     bench::fmt("measured %.2f/s", s.mix.requests_per_sec));
  ok &= bench::check("1 KB requests dominate", s.pct_1k > 60.0,
                     bench::fmt("measured %.1f%%", s.pct_1k));
  ok &= bench::check(
      "activity at low AND high sectors",
      [&] {
        bool low = false, high = false;
        for (const auto& rec : r.trace.records()) {
          low |= rec.sector < 200'000;
          high |= rec.sector > 800'000;
        }
        return low && high;
      }(),
      "");
  std::printf("total requests: %llu over %.0f s (paper: 1782 over 2000 s)\n",
              static_cast<unsigned long long>(s.mix.total), s.duration_sec);
  return ok ? 0 : 1;
}
