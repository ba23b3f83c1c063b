// Ablation A2: the read-ahead/coalescing ceiling and the ~16 KB request
// class.
//
// The paper attributes requests approaching 16 KB to the node's 16 KB
// cache, and the 16-32 KB class of the combined run to "an increased I/O
// buffer size". This ablation sweeps the ceiling and shows the large-
// request class tracks it — the design knob the paper identifies.
#include <cstdio>

#include "analysis/characterize.hpp"
#include "bench/common.hpp"
#include "bench/targets.hpp"
#include "util/csv.hpp"

int ablation_readahead() {
  using namespace ess;
  core::StudyConfig base = bench::study_config();

  CsvWriter csv(bench::out_dir() + "/ablation_readahead.csv");
  csv.header({"ceiling_kb", "max_request_kb", "pct_ge_8k", "reads"});

  std::printf("Ablation: read-ahead / coalescing ceiling (wavelet run)\n");
  std::printf("  ceiling   max request   %%>=8KB\n");

  bool ok = true;
  std::uint32_t prev_max = 0;
  for (const std::uint32_t ceiling : {4u, 8u, 16u, 32u}) {
    core::StudyConfig cfg = base;
    cfg.node.readahead_ceiling_blocks = ceiling;
    cfg.node.max_coalesce_blocks = ceiling;
    core::Study study(cfg);
    const auto r = study.run_single(core::AppKind::kWavelet);
    const auto s = analysis::summarize(r.trace);
    std::printf("  %4u KB    %6.0f KB     %5.1f%%\n", ceiling,
                s.max_request_bytes / 1024.0, s.pct_ge_8k);
    csv.row(ceiling, s.max_request_bytes / 1024.0, s.pct_ge_8k,
            s.mix.reads);
    ok &= s.max_request_bytes <= ceiling * 1024;
    ok &= s.max_request_bytes >= prev_max;  // monotone in the ceiling
    prev_max = s.max_request_bytes;
  }

  std::printf("\nPaper-vs-measured checks:\n");
  ok = bench::check("max request tracks the cache/buffer ceiling", ok, "") &&
       ok;
  return ok ? 0 : 1;
}
