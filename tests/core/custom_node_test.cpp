// Study with overridden node hardware: the public-API path a downstream
// user takes to model their own machine.
#include <gtest/gtest.h>

#include "core/study.hpp"
#include "fast_config.hpp"
#include "kernel/node_kernel.hpp"
#include "workload/builder.hpp"
#include "workload/synthetic.hpp"

namespace ess::core {
namespace {

TEST(CustomNode, BiggerCacheAbsorbsRereads) {
  auto mk = [](std::size_t cache_blocks) {
    auto cfg = test::fast_study_config();
    cfg.node.buffer_cache_blocks = cache_blocks;
    Study study(cfg);
    // Read a 2 MB file twice; the second pass hits only if it fits.
    auto t = workload::sequential_read("reader", "/data/big.bin",
                                       2 * 1024 * 1024, 64 * 1024,
                                       msec(100));
    auto t2 = workload::sequential_read("reader2", "/data/big.bin",
                                        2 * 1024 * 1024, 64 * 1024,
                                        msec(100));
    // Serialize the two passes inside one process.
    workload::OpTraceBuilder b("rereader");
    const auto in = b.input_file("/data/big.bin", 2 * 1024 * 1024);
    for (int pass = 0; pass < 2; ++pass) {
      for (std::uint64_t off = 0; off < 2 * 1024 * 1024; off += 64 * 1024) {
        b.read(in, off, 64 * 1024);
      }
      b.compute(sec(1));
    }
    (void)t;
    (void)t2;
    const auto r = study.run_custom("reread", {std::move(b).build()});
    return analysis::summarize(r.trace).mix.reads;
  };
  const auto small_cache_reads = mk(512);    // 0.5 MB: second pass misses
  const auto big_cache_reads = mk(4096);     // 4 MB: second pass hits
  EXPECT_LT(big_cache_reads, small_cache_reads);
}

TEST(CustomNode, SlowerDiskStretchesTheRun) {
  auto run_s = [](double mb_per_s) {
    auto cfg = test::fast_study_config();
    cfg.node.disk.transfer_mb_per_s = mb_per_s;
    Study study(cfg);
    auto t = workload::sequential_read("reader", "/data/big.bin",
                                       4 * 1024 * 1024, 64 * 1024,
                                       msec(1));
    const auto r = study.run_custom("scan", {std::move(t)});
    return to_seconds(r.trace.duration());
  };
  EXPECT_GT(run_s(0.5), run_s(5.0));
}

TEST(CustomNode, FifoSchedulerIsConfigurable) {
  auto cfg = test::fast_study_config();
  cfg.node.disk_scheduler = disk::SchedulerKind::kFifo;
  Study study(cfg);
  const auto r = study.run_baseline();
  EXPECT_GT(r.trace.size(), 0u);  // same mechanisms, different servicing
}

TEST(CustomNode, CombinedDeterministicForSameSeed) {
  auto run = [] {
    Study study(test::fast_study_config());
    return study.run_combined().trace;
  };
  const auto a = run();
  const auto b = run();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); i += 97) {
    EXPECT_EQ(a.records()[i], b.records()[i]);
  }
}

TEST(CustomNode, TraceLevelVerboseDoublesRecords) {
  auto cfg = test::fast_study_config();
  Study study(cfg);
  // Compare standard vs verbose on the same workload via NodeKernel.
  auto count_records = [&](driver::TraceLevel lvl) {
    kernel::NodeKernel node(cfg.node);
    node.ioctl_trace(lvl);
    node.run_for(sec(200));
    return node.collect_trace("lvl").size();
  };
  const auto standard = count_records(driver::TraceLevel::kStandard);
  const auto verbose = count_records(driver::TraceLevel::kVerbose);
  EXPECT_NEAR(static_cast<double>(verbose),
              2.0 * static_cast<double>(standard),
              0.1 * static_cast<double>(verbose));
}

}  // namespace
}  // namespace ess::core
