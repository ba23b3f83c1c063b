// Table 1: I/O Requests — the distribution of reads and writes during each
// application (average per disk) and during 2000 s of baseline inactivity.
//
// Paper values (those legible in the surviving text):
//   Baseline  0% reads / 100% writes   0.9 req/s   1782 total
//   PPM       4% reads /  96% writes
//   Wavelet  49% reads /  51% writes
//   N-Body   13% reads /  87% writes
#include <cstdio>

#include "analysis/report.hpp"
#include "bench/common.hpp"
#include "bench/targets.hpp"

int table1_rw_mix() {
  using namespace ess;
  core::Study study(bench::study_config());
  const auto rows = study.table1(/*include_combined=*/true);

  std::printf("%s\n", analysis::render_table1(rows).c_str());
  analysis::write_table1_csv(rows, bench::out_dir() + "/table1.csv");

  struct PaperRow {
    const char* name;
    double read_pct;
  };
  const PaperRow paper[] = {
      {"Baseline", 0.0}, {"PPM", 4.0}, {"Wavelet", 49.0}, {"N-Body", 13.0}};

  std::printf("Paper-vs-measured checks:\n");
  bool ok = true;
  for (std::size_t i = 0; i < 4; ++i) {
    const auto& row = rows[i];
    // The app mixes only converge at the paper's step counts; the reduced
    // ESS_FAST runs weigh startup I/O (reads) much more heavily. Wavelet's
    // mix is read-heavy at either scale, so it keeps ±15 pp in fast mode.
    const bool loose = bench::fast_mode() && i != 2;
    const double tolerance = i == 0 ? 1.0 : loose ? 30.0 : 15.0;
    char what[96];
    std::snprintf(what, sizeof what, "%s reads %.0f%% (paper: %.0f%%)",
                  paper[i].name, row.mix.read_pct, paper[i].read_pct);
    ok &= bench::check(what,
                       std::abs(row.mix.read_pct - paper[i].read_pct) <=
                           tolerance,
                       "");
  }
  // Orderings the paper reports.
  ok &= bench::check("rate ordering: wavelet >> others",
                     rows[2].mix.requests_per_sec >
                         3 * rows[1].mix.requests_per_sec,
                     "");
  ok &= bench::check("read% ordering: baseline < PPM <= N-Body < wavelet",
                     rows[0].mix.read_pct < rows[1].mix.read_pct + 0.1 &&
                         rows[1].mix.read_pct <= rows[3].mix.read_pct + 2 &&
                         rows[3].mix.read_pct < rows[2].mix.read_pct,
                     "");
  ok &= bench::check("baseline ~0.9 req/s (paper: 0.9)",
                     rows[0].mix.requests_per_sec > 0.3 &&
                         rows[0].mix.requests_per_sec < 2.0,
                     bench::fmt("%.2f/s", rows[0].mix.requests_per_sec));
  return ok ? 0 : 1;
}
