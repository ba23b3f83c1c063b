// Extension E-regions: decomposing the total workload into its elementary
// contributions.
//
// The paper's stated objective: "we especially recognize the benefit of
// being able to characterize this total I/O workload generated, as well as
// the elementary factors that give rise to this overall behavior". This
// harness splits each experiment's trace by disk region — filesystem
// metadata, system logs, the instrumentation's own trace file, the swap
// area (paging), and application data — and reports each class's share and
// write ratio, plus the arrival-pattern metrics (burstiness, inter-arrival
// CV, device-level sequentiality).
#include <cstdio>

#include "analysis/patterns.hpp"
#include "bench/common.hpp"
#include "bench/targets.hpp"

int ext_region_decomposition() {
  using namespace ess;
  core::Study study(bench::study_config());

  bool ok = true;
  struct Exp {
    const char* name;
    core::RunResult run;
  };
  std::vector<Exp> exps;
  exps.push_back({"Baseline", study.run_baseline()});
  exps.push_back({"Wavelet", study.run_single(core::AppKind::kWavelet)});
  exps.push_back({"Combined", study.run_combined()});

  for (const auto& e : exps) {
    const auto rows = analysis::region_breakdown(e.run.trace);
    std::printf("=== %s ===\n%s", e.name,
                analysis::render_region_table(rows).c_str());
    const auto ia = analysis::inter_arrival(e.run.trace);
    std::printf("  inter-arrival: mean %.2f s, CV %.2f   burstiness: %.0f%% "
                "of requests in busiest 10%% of 10 s windows   "
                "sequential: %.1f%%\n\n",
                ia.gaps_sec.mean(), ia.cv,
                100.0 * analysis::burstiness(e.run.trace, sec(10)),
                100.0 * analysis::sequential_fraction(e.run.trace));
  }

  std::printf("Checks:\n");
  // Baseline: logs + metadata + the trace file account for ~everything.
  {
    const auto rows = analysis::region_breakdown(exps[0].run.trace);
    double system_pct = 0;
    for (const auto& r : rows) {
      if (r.region != analysis::Region::kAppData &&
          r.region != analysis::Region::kSwap) {
        system_pct += r.pct;
      }
    }
    ok &= bench::check("baseline is (almost) all system activity",
                       system_pct > 95.0,
                       bench::fmt("%.1f%%", system_pct));
  }
  // Wavelet: paging (swap + app-region page-ins) dominates.
  {
    const auto rows = analysis::region_breakdown(exps[1].run.trace);
    double paging_pct = 0;
    for (const auto& r : rows) {
      if (r.region == analysis::Region::kSwap ||
          r.region == analysis::Region::kAppData) {
        paging_pct += r.pct;
      }
    }
    ok &= bench::check("wavelet dominated by paging + data traffic",
                       paging_pct > 70.0, bench::fmt("%.1f%%", paging_pct));
  }
  // Combined run is burstier than the baseline's periodic daemons.
  {
    const double b_base = analysis::burstiness(exps[0].run.trace, sec(10));
    const double b_comb = analysis::burstiness(exps[2].run.trace, sec(10));
    ok &= bench::check("combined load burstier than baseline",
                       b_comb > b_base,
                       bench::fmt("%.2f", b_comb) + " vs " +
                           bench::fmt("%.2f", b_base));
  }
  return ok ? 0 : 1;
}
