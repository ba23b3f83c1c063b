// Figure 8: Temporal Locality (combined) — per-sector access frequency
// averaged over the combined run.
//
// Paper: "Temporal locality is expressed as the frequency of accesses (per
// second) to the same sector on disk ... The most frequently accessed
// sector location was approximately 45000, and the next most frequent at
// just under 100000."
#include <cstdio>

#include "analysis/report.hpp"
#include "bench/common.hpp"
#include "bench/targets.hpp"

int fig8_temporal() {
  using namespace ess;
  core::Study study(bench::study_config());
  const auto r = study.run_combined();

  std::printf("%s\n",
              analysis::render_temporal_figure(
                  r.trace, "Figure 8. Temporal Locality (combined)")
                  .c_str());
  analysis::write_temporal_csv(r.trace,
                               bench::out_dir() + "/fig8_temporal.csv");

  const auto c = analysis::characterize(r.trace);
  const auto hot = c.hot().top(8);
  std::printf("Hot spots (top sectors by access frequency):\n");
  for (const auto& h : hot) {
    std::printf("  sector %8llu: %llu accesses (%.3f/s)\n",
                static_cast<unsigned long long>(h.sector),
                static_cast<unsigned long long>(h.count), h.per_sec);
  }
  std::printf("Mean reuse gap: %.1f s\n",
              analysis::mean_reuse_gap_sec(r.trace));

  std::printf("\nPaper-vs-measured checks:\n");
  bool ok = true;
  ok &= bench::check("hot spots exist", !hot.empty() && hot[0].count >= 20,
                     hot.empty() ? "none"
                                 : bench::fmt("top has %.0f accesses",
                                              static_cast<double>(
                                                  hot[0].count)));
  ok &= bench::check(
      "hottest sector near 45000 (paper: ~45000)",
      !hot.empty() && hot[0].sector > 20'000 && hot[0].sector < 70'000,
      hot.empty() ? "" : bench::fmt("sector %.0f",
                                    static_cast<double>(hot[0].sector)));
  ok &= bench::check(
      "second hot spot just under 100000 (paper: <100000)",
      hot.size() > 1 && hot[1].sector > 80'000 && hot[1].sector < 100'000,
      hot.size() > 1 ? bench::fmt("sector %.0f",
                                  static_cast<double>(hot[1].sector))
                     : "");
  ok &= bench::check(
      "most I/O at lower sector numbers",
      analysis::disk_fraction_for_coverage(c, 0.5) < 0.05, "");
  return ok ? 0 : 1;
}
