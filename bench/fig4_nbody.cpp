// Figure 4: Request Size (N-Body) — request size vs. time for the oct-tree
// N-body run.
//
// Paper: "the consistent 1 KB block I/O is visible, with more 2 KB requests
// and a few page swaps (or 4KB requests) than occurred during PPM ... the
// overall activity is obviously much less than that of the wavelet
// program." Table 1: 13% reads / 87% writes.
#include <cstdio>

#include "analysis/report.hpp"
#include "bench/common.hpp"
#include "bench/targets.hpp"

int fig4_nbody() {
  using namespace ess;
  core::Study study(bench::study_config());
  const auto nb = study.run_single(core::AppKind::kNBody);
  const auto wav = study.run_single(core::AppKind::kWavelet);
  const auto ppm = study.run_single(core::AppKind::kPpm);
  const auto s = analysis::summarize(nb.trace);
  const auto s_wav = analysis::summarize(wav.trace);
  const auto s_ppm = analysis::summarize(ppm.trace);

  std::printf(
      "%s\n",
      analysis::render_size_figure(nb.trace, "Figure 4. Request Size (N-Body)")
          .c_str());
  std::printf("%s\n", analysis::render_size_classes(s).c_str());
  analysis::write_size_series_csv(nb.trace,
                                  bench::out_dir() + "/fig4_nbody.csv");

  const auto& art = study.artifacts();
  std::printf("Oct-tree run: %llu M interactions (paper: 303 M), "
              "momentum drift %.2e\n",
              static_cast<unsigned long long>(
                  art.nbody.total_interactions / 1'000'000),
              art.nbody.momentum_drift);

  std::printf("\nPaper-vs-measured checks:\n");
  bool ok = true;
  ok &= bench::check("1 KB block I/O consistent", s.pct_1k > 40.0,
                     bench::fmt("measured %.1f%%", s.pct_1k));
  // The paper compares the figures visually: more 2 KB requests appear in
  // Fig. 4 than in Fig. 2 (absolute occurrences).
  const auto count_2k = [](const trace::TraceSet& t) {
    return analysis::characterize(t).sizes().histogram().count(2048);
  };
  // Single-digit counts at ESS_FAST scale: allow a ±2 tie there.
  ok &= bench::check("more 2 KB requests than PPM",
                     count_2k(nb.trace) + (bench::fast_mode() ? 2 : 0) >=
                         count_2k(ppm.trace),
                     bench::fmt("%.0f", static_cast<double>(count_2k(nb.trace))) +
                         " vs " +
                         bench::fmt("%.0f", static_cast<double>(count_2k(ppm.trace))));
  ok &= bench::check("a few 4 KB page swaps (more than PPM)",
                     s.pct_4k >= s_ppm.pct_4k,
                     bench::fmt("%.1f%%", s.pct_4k) + " vs " +
                         bench::fmt("%.1f%%", s_ppm.pct_4k));
  // At ESS_FAST's 4 steps the read-heavy startup weighs more; writes still
  // hold the majority, just not the full-scale 87%.
  ok &= bench::check("write dominated (paper: 87%)",
                     s.mix.write_pct > (bench::fast_mode() ? 50.0 : 60.0),
                     bench::fmt("measured %.1f%%", s.mix.write_pct));
  ok &= bench::check("much less activity than wavelet",
                     s.mix.requests_per_sec < s_wav.mix.requests_per_sec / 2,
                     bench::fmt("%.2f/s", s.mix.requests_per_sec) + " vs " +
                         bench::fmt("%.2f/s", s_wav.mix.requests_per_sec));
  return ok ? 0 : 1;
}
