// Example: characterize your own workload.
//
// Builds a custom application model with the OpTrace builder (a checkpoint-
// heavy simulation), runs it on the simulated Beowulf node alongside a
// synthetic random-read "index server", and prints the resulting disk
// characterization — the workflow the paper proposes for using measured
// parameter sets in system design studies.
#include <cstdio>

#include "analysis/report.hpp"
#include "core/study.hpp"
#include "workload/builder.hpp"
#include "workload/synthetic.hpp"

int main() {
  using namespace ess;

  // A user-defined app: compute for 60 s (modelled DX4 time), checkpoint
  // 64 KB every 10 s, with a 2 MB working set sampled during compute.
  Rng rng(123);
  workload::OpTraceBuilder b("checkpointer");
  b.set_image_bytes(512 * 1024);
  b.set_anon_bytes(2 * 1024 * 1024);
  const auto out = b.output_file("/data/checkpoints.bin");
  b.touch_range(0, b.peek().image_pages(), false);
  for (int epoch = 0; epoch < 6; ++epoch) {
    b.compute_with_working_set(sec(10), b.anon_first_page(),
                               b.peek().anon_pages(), 8, 32, 0.5, rng);
    b.append(out, 64 * 1024);
  }

  // A synthetic companion: uniform random 4 KB reads from a 20 MB file.
  auto reader = workload::random_read("index-server", "/data/index.db",
                                      20 * 1024 * 1024, 400, 4096,
                                      msec(150), rng);

  core::StudyConfig cfg;
  core::Study study(cfg);
  const auto result =
      study.run_custom("Custom", {std::move(b).build(), std::move(reader)});

  const auto s = analysis::summarize(result.trace);
  std::printf("%s\n",
              analysis::render_size_figure(result.trace,
                                           "Custom workload: request sizes")
                  .c_str());
  std::printf("%s\n", analysis::render_table1({s}).c_str());
  std::printf("%s\n", analysis::render_size_classes(s).c_str());
  std::printf("90%% of requests on %.2f%% of the disk\n",
              100.0 * analysis::disk_fraction_for_coverage(
                          analysis::characterize(result.trace), 0.9));
  return 0;
}
