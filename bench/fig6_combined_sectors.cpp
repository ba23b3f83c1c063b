// Figure 6: I/O Requests (combined) — sector vs. time with all three
// applications running simultaneously.
//
// Paper: "a correspondingly higher amount of request activity, primarily
// in the lower sector numbers. The clumping of requests seen in Figure 6
// matches the periods of greater request activity seen in Figure 5."
#include <cstdio>

#include "analysis/report.hpp"
#include "bench/common.hpp"
#include "bench/targets.hpp"

int fig6_combined_sectors() {
  using namespace ess;
  core::Study study(bench::study_config());
  const auto combined = study.run_combined();
  const auto baseline = study.run_baseline();
  const auto s = analysis::summarize(combined.trace);

  std::printf("%s\n",
              analysis::render_sector_figure(
                  combined.trace, "Figure 6. I/O Requests (combined)")
                  .c_str());
  analysis::write_sector_series_csv(combined.trace,
                                    bench::out_dir() + "/fig6_combined.csv");

  std::printf("\nPaper-vs-measured checks:\n");
  bool ok = true;
  ok &= bench::check(
      "much higher activity than baseline",
      s.mix.requests_per_sec >
          analysis::summarize(baseline.trace).mix.requests_per_sec * 3,
      bench::fmt("%.2f/s", s.mix.requests_per_sec));
  double low_pct = 0;
  for (const auto& b :
       analysis::characterize(combined.trace).spatial().bands()) {
    if (b.band_start_sector < 200'000) low_pct += b.pct;
  }
  ok &= bench::check("activity primarily at lower sectors", low_pct > 70.0,
                     bench::fmt("%.1f%% below sector 200K", low_pct));
  return ok ? 0 : 1;
}
