// Extension E-checkpoint: the "checkpoint" I/O class.
//
// Miller & Katz's taxonomy (which the paper's related work builds on)
// distinguishes required, checkpoint, and data-staging I/O. The paper's
// PPM ran without restart dumps; this extension enables them (full
// conserved-state dumps every N steps) and contrasts the resulting disk
// signature with the paper's configuration — the write volume and request
// sizes shift exactly as the taxonomy predicts.
#include <cstdio>

#include "analysis/characterize.hpp"
#include "bench/common.hpp"
#include "bench/targets.hpp"

int ext_checkpoint_class() {
  using namespace ess;

  core::StudyConfig plain_cfg = bench::study_config();
  core::Study plain(plain_cfg);
  const auto base = plain.run_single(core::AppKind::kPpm);
  const auto s0 = analysis::summarize(base.trace);

  core::StudyConfig chk_cfg = bench::study_config();
  // Four dumps over the run at either scale (ESS_FAST runs 12 steps; an
  // interval past the step count would never checkpoint at all).
  chk_cfg.ppm.checkpoint_every = bench::fast_mode() ? 3 : 15;
  core::Study with_chk(chk_cfg);
  const auto chk = with_chk.run_single(core::AppKind::kPpm);
  const auto s1 = analysis::summarize(chk.trace);

  const double dump_mb =
      static_cast<double>(chk_cfg.ppm.nx) * chk_cfg.ppm.ny * 4 * 8 / 1e6;
  std::printf("PPM with restart dumps (%.1f MB each, every %d steps):\n\n",
              dump_mb, chk_cfg.ppm.checkpoint_every);
  std::printf("  metric            no-checkpoint   checkpointing\n");
  std::printf("  requests          %10llu     %10llu\n",
              static_cast<unsigned long long>(s0.mix.total),
              static_cast<unsigned long long>(s1.mix.total));
  std::printf("  req/s             %10.2f     %10.2f\n",
              s0.mix.requests_per_sec, s1.mix.requests_per_sec);
  std::printf("  write %%           %10.1f     %10.1f\n", s0.mix.write_pct,
              s1.mix.write_pct);
  std::printf("  %%>=8KB            %10.1f     %10.1f\n", s0.pct_ge_8k,
              s1.pct_ge_8k);
  std::printf("  max request KB    %10u     %10u\n",
              s0.max_request_bytes / 1024, s1.max_request_bytes / 1024);

  std::printf("\nChecks:\n");
  bool ok = true;
  ok &= bench::check("checkpointing multiplies the request count",
                     s1.mix.total > 3 * s0.mix.total,
                     bench::fmt("%.0fx", static_cast<double>(s1.mix.total) /
                                             static_cast<double>(s0.mix.total)));
  ok &= bench::check("checkpoint dumps stream as large writes",
                     s1.pct_ge_8k > s0.pct_ge_8k + 5.0,
                     bench::fmt("%.1f%% >= 8 KB", s1.pct_ge_8k));
  ok &= bench::check("still write-dominated", s1.mix.write_pct > 90.0,
                     bench::fmt("%.1f%%", s1.mix.write_pct));
  return ok ? 0 : 1;
}
