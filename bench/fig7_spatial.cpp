// Figure 7: Spatial Locality (combined) — percentage of I/O requests per
// band of 100K sectors.
//
// Paper: "sectors have been combined into bands of 100K each. The higher
// incidence of I/O activity in the lower sector numbers is caused by the
// user programs and data, swap file space, and kernel file data mainly
// residing in these locations ... almost follows the [90/10] rule."
#include <cstdio>

#include "analysis/report.hpp"
#include "bench/common.hpp"
#include "bench/targets.hpp"

int fig7_spatial() {
  using namespace ess;
  core::Study study(bench::study_config());
  const auto r = study.run_combined();

  std::printf("%s\n",
              analysis::render_spatial_figure(
                  r.trace, "Figure 7. Spatial Locality (combined)")
                  .c_str());
  analysis::write_spatial_csv(r.trace, bench::out_dir() + "/fig7_spatial.csv");

  const auto c = analysis::characterize(r.trace);
  const double disk_frac_90 = analysis::disk_fraction_for_coverage(c, 0.9);
  std::printf("90%% of requests fall on %.2f%% of the disk's sectors\n",
              100.0 * disk_frac_90);

  std::printf("\nPaper-vs-measured checks:\n");
  bool ok = true;
  const auto bands = c.spatial().bands();
  double low = 0, top_band = 0;
  for (const auto& b : bands) {
    if (b.band_start_sector < 200'000) low += b.pct;
    top_band = std::max(top_band, b.pct);
  }
  ok &= bench::check("lower bands dominate", low > 70.0,
                     bench::fmt("%.1f%% below 200K", low));
  ok &= bench::check("almost follows the 90/10 rule", disk_frac_90 < 0.10,
                     bench::fmt("90%% on %.2f%% of disk", 100 * disk_frac_90));
  ok &= bench::check("a single band holds most activity", top_band > 50.0,
                     bench::fmt("top band %.1f%%", top_band));
  return ok ? 0 : 1;
}
