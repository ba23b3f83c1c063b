// Figure 3: Request Size (wavelet) — request size vs. time for the wavelet
// decomposition run.
//
// Paper: "a frequent request size of 4KB ... a high rate of paging ... due
// to the large program space and image data requirements. A spike of I/O
// activity occurs at approximately 50 seconds ... Requests approaching
// 16 KB are observed during this period ... a result of the 16 KB cache.
// ... A lull in the I/O activity ... the computational phase." Table 1:
// 49% reads / 51% writes.
#include <cstdio>

#include "analysis/phases.hpp"
#include "analysis/report.hpp"
#include "bench/common.hpp"
#include "bench/targets.hpp"

int fig3_wavelet() {
  using namespace ess;
  core::Study study(bench::study_config());
  const auto r = study.run_single(core::AppKind::kWavelet);
  const auto s = analysis::summarize(r.trace);

  std::printf(
      "%s\n",
      analysis::render_size_figure(r.trace, "Figure 3. Request Size (wavelet)")
          .c_str());
  std::printf("%s\n", analysis::render_size_classes(s).c_str());
  analysis::write_size_series_csv(r.trace,
                                  bench::out_dir() + "/fig3_wavelet.csv");

  // Activity phases (requests/s over 25 s windows).
  telemetry::WindowRateConsumer rates(sec(25));
  rates.on_records(r.trace.records().data(), r.trace.size());
  rates.on_finish(r.trace.duration());
  std::printf("Activity over time (req/s per 25 s window):\n  ");
  for (const double v : rates.series()) std::printf("%.1f ", v);
  std::printf("\n\n");

  // The paper's narrative, recovered mechanically: startup paging, the
  // image-read spike, the compute lull, the heavier tail.
  const auto phases = analysis::detect_phases(r.trace, sec(20));
  std::printf("%s\n", analysis::render_phases(phases).c_str());

  const auto& art = study.artifacts();
  std::printf("Registration found shift (%d, %d); D4 compression ratio %.2f\n",
              art.wavelet.best_shift_row, art.wavelet.best_shift_col,
              art.wavelet.compression_ratio);

  std::printf("\nPaper-vs-measured checks:\n");
  bool ok = true;
  ok &= bench::check("4 KB paging frequent", s.pct_4k > 25.0,
                     bench::fmt("measured %.1f%%", s.pct_4k));
  ok &= bench::check("read/write near 49/51", s.mix.read_pct > 30.0 &&
                                                  s.mix.read_pct < 65.0,
                     bench::fmt("measured %.1f%% reads", s.mix.read_pct));
  ok &= bench::check("large requests approach 16 KB",
                     s.max_request_bytes >= 12 * 1024,
                     bench::fmt("max %.0f KB", s.max_request_bytes / 1024.0));
  // Early paging burst exceeds the mid-run lull.
  const auto dur = r.trace.duration();
  const auto early = r.trace.slice(0, dur / 4);
  const auto mid = r.trace.slice(dur / 2, dur * 3 / 4);
  ok &= bench::check(
      "startup paging burst then compute lull",
      early.size() > mid.size(),
      bench::fmt("early %.0f", static_cast<double>(early.size())) + " vs " +
          bench::fmt("mid %.0f", static_cast<double>(mid.size())));
  return ok ? 0 : 1;
}
