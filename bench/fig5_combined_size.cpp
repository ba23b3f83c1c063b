// Figure 5: Request Size (combined) — request size vs. time with all three
// applications running simultaneously.
//
// Paper: "The 1 KB requests are maintained throughout this period, with a
// much higher occurrence of 4 KB requests ... Request sizes in the 16 KB
// to 32 KB range ... are attributed to an increased I/O buffer size when
// the wavelet data file is read."
#include <cstdio>

#include "analysis/report.hpp"
#include "bench/common.hpp"
#include "bench/targets.hpp"

int fig5_combined_size() {
  using namespace ess;
  core::Study study(bench::study_config());
  const auto combined = study.run_combined();
  const auto single = study.run_single(core::AppKind::kWavelet);
  const auto s = analysis::summarize(combined.trace);
  const auto s1 = analysis::summarize(single.trace);

  std::printf("%s\n",
              analysis::render_size_figure(combined.trace,
                                           "Figure 5. Request Size (combined)")
                  .c_str());
  std::printf("%s\n", analysis::render_size_classes(s).c_str());
  analysis::write_size_series_csv(combined.trace,
                                  bench::out_dir() + "/fig5_combined.csv");

  std::printf("Run length: %.0f s (paper: ~700 s)\n", s.duration_sec);

  std::printf("\nPaper-vs-measured checks:\n");
  bool ok = true;
  ok &= bench::check("1 KB class maintained",
                     analysis::characterize(combined.trace)
                             .sizes()
                             .histogram()
                             .count(1024) > 100,
                     "");
  // ESS_FAST leaves the shares statistically tied; allow a small slack
  // there, keep the strict ordering at full scale.
  ok &= bench::check("higher 4 KB occurrence than single runs",
                     s.pct_4k >= s1.pct_4k - (bench::fast_mode() ? 1.0 : 0.0),
                     bench::fmt("%.1f%%", s.pct_4k) + " vs " +
                         bench::fmt("%.1f%%", s1.pct_4k));
  ok &= bench::check("16-32 KB requests appear",
                     s.max_request_bytes > 16 * 1024 &&
                         s.max_request_bytes <= 32 * 1024,
                     bench::fmt("max %.0f KB", s.max_request_bytes / 1024.0));
  ok &= bench::check("combined sizes exceed independent runs",
                     s.max_request_bytes >= s1.max_request_bytes, "");
  return ok ? 0 : 1;
}
