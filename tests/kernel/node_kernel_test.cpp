#include "kernel/node_kernel.hpp"

#include <gtest/gtest.h>

#include "analysis/characterize.hpp"
#include "workload/builder.hpp"

namespace ess::kernel {
namespace {

KernelConfig fast_cfg() {
  KernelConfig cfg;
  return cfg;
}

workload::OpTrace toy_trace(SimTime compute = sec(5),
                            std::uint64_t write_bytes = 4096) {
  workload::OpTraceBuilder b("toy");
  b.set_image_bytes(64 * 1024);
  b.set_anon_bytes(256 * 1024);
  const auto out = b.output_file("/data/toy.out");
  b.touch_range(0, 16, false);
  b.compute(compute / 2);
  b.append(out, write_bytes);
  b.compute(compute / 2);
  return std::move(b).build();
}

TEST(NodeKernel, ToyProcessRunsToCompletion) {
  NodeKernel node(fast_cfg());
  node.stage_input_file("/bin/toy", 64 * 1024);
  const auto pid = node.spawn(toy_trace());
  EXPECT_TRUE(node.run_until_done(sec(100)));
  const Process& p = node.process(pid);
  EXPECT_TRUE(p.done());
  EXPECT_GE(p.finish_time, p.spawn_time + sec(5));
  EXPECT_GE(p.stats.cpu_time, sec(5));
}

TEST(NodeKernel, ComputeTimeIsAccurate) {
  KernelConfig cfg = fast_cfg();
  cfg.daemons.enabled = false;
  NodeKernel node(cfg);
  workload::OpTraceBuilder b("cpu");
  b.compute(sec(7));
  const auto pid = node.spawn(std::move(b).build());
  ASSERT_TRUE(node.run_until_done(sec(100)));
  EXPECT_EQ(node.process(pid).stats.cpu_time, sec(7));
  EXPECT_EQ(node.process(pid).finish_time - node.process(pid).spawn_time,
            sec(7));
}

TEST(NodeKernel, RoundRobinInterleavesTwoCpuBoundProcesses) {
  KernelConfig cfg = fast_cfg();
  cfg.daemons.enabled = false;
  cfg.quantum = msec(100);
  NodeKernel node(cfg);
  workload::OpTraceBuilder a("a"), b("b");
  a.compute(sec(2));
  b.compute(sec(2));
  const auto pa = node.spawn(std::move(a).build());
  const auto pb = node.spawn(std::move(b).build());
  ASSERT_TRUE(node.run_until_done(sec(100)));
  // Fair sharing: both finish ~4 s after spawn (not 2 s then 4 s).
  const auto fa = node.process(pa).finish_time - node.process(pa).spawn_time;
  const auto fb = node.process(pb).finish_time - node.process(pb).spawn_time;
  EXPECT_NEAR(to_seconds(fa), 4.0, 0.2);
  EXPECT_NEAR(to_seconds(fb), 4.0, 0.2);
  EXPECT_LE(fa < fb ? fb - fa : fa - fb, msec(200));
}

TEST(NodeKernel, SpawnWithoutStagedInputThrows) {
  NodeKernel node(fast_cfg());
  workload::OpTraceBuilder b("needy");
  b.input_file("/data/missing.bin", 1024);
  EXPECT_THROW(node.spawn(std::move(b).build()), std::runtime_error);
}

TEST(NodeKernel, ReadBlocksUntilDiskCompletes) {
  KernelConfig cfg = fast_cfg();
  cfg.daemons.enabled = false;
  NodeKernel node(cfg);
  workload::OpTraceBuilder b("reader");
  const auto in = b.input_file("/data/in.bin", 64 * 1024);
  b.read(in, 0, 64 * 1024);
  node.stage_input_file("/data/in.bin", 64 * 1024);
  const auto pid = node.spawn(std::move(b).build());
  ASSERT_TRUE(node.run_until_done(sec(100)));
  EXPECT_GT(node.process(pid).stats.blocked_time, 0u);
  EXPECT_EQ(node.process(pid).stats.reads, 1u);
}

TEST(NodeKernel, BaselineDaemonsProduceOnlyWrites) {
  NodeKernel node(fast_cfg());
  node.ioctl_trace(driver::TraceLevel::kStandard);
  node.run_for(sec(120));
  const auto ts = node.collect_trace("baseline");
  ASSERT_GT(ts.size(), 0u);
  const auto mix = analysis::summarize(ts).mix;
  EXPECT_EQ(mix.reads, 0u);
  EXPECT_GT(mix.writes, 0u);
}

TEST(NodeKernel, BaselineRateRoughlyMatchesPaper) {
  NodeKernel node(fast_cfg());
  node.run_for(sec(5));
  node.ioctl_trace(driver::TraceLevel::kStandard);
  const SimTime t0 = node.now();
  node.run_for(sec(600));
  node.ioctl_trace(driver::TraceLevel::kOff);
  auto ts = node.collect_trace("baseline");
  ts.rebase(t0);
  ts.set_duration(sec(600));
  const auto mix = analysis::summarize(ts).mix;
  // Paper: ~0.9 req/s. Accept a generous band around it.
  EXPECT_GT(mix.requests_per_sec, 0.3);
  EXPECT_LT(mix.requests_per_sec, 2.0);
}

TEST(NodeKernel, TraceOffCapturesNothing) {
  NodeKernel node(fast_cfg());
  node.run_for(sec(120));
  const auto ts = node.collect_trace("off");
  EXPECT_EQ(ts.size(), 0u);
}

TEST(NodeKernel, DeterministicAcrossRuns) {
  auto run = [] {
    NodeKernel node(fast_cfg());
    node.stage_input_file("/bin/toy", 64 * 1024);
    node.ioctl_trace(driver::TraceLevel::kStandard);
    node.spawn(toy_trace());
    node.run_until_done(sec(100));
    node.run_for(sec(40));
    return node.collect_trace("det");
  };
  const auto a = run();
  const auto b = run();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.records()[i], b.records()[i]);
  }
}

TEST(NodeKernel, WarmFileMakesPageInsHitCache) {
  auto page_in_reads = [](bool warm) {
    KernelConfig cfg = fast_cfg();
    cfg.daemons.enabled = false;
    NodeKernel node(cfg);
    node.stage_input_file("/bin/toy", 256 * 1024);
    if (warm) node.warm_file("/bin/toy");
    node.ioctl_trace(driver::TraceLevel::kStandard);
    workload::OpTraceBuilder b("toy");
    b.set_image_bytes(256 * 1024);
    b.touch_range(0, 64, false);
    node.spawn(std::move(b).build());
    node.run_until_done(sec(100));
    const auto ts = node.collect_trace("warm");
    return analysis::summarize(ts).mix.reads;
  };
  EXPECT_GT(page_in_reads(false), 0u);
  EXPECT_EQ(page_in_reads(true), 0u);
}

TEST(NodeKernel, PartialWarmLeavesTailCold) {
  KernelConfig cfg = fast_cfg();
  cfg.daemons.enabled = false;
  NodeKernel node(cfg);
  node.stage_input_file("/bin/toy", 256 * 1024);
  node.warm_file("/bin/toy", 0.5);
  node.ioctl_trace(driver::TraceLevel::kStandard);
  workload::OpTraceBuilder b("toy");
  b.set_image_bytes(256 * 1024);
  b.touch_range(0, 64, false);
  node.spawn(std::move(b).build());
  node.run_until_done(sec(100));
  const auto reads = analysis::summarize(node.collect_trace("p")).mix.reads;
  EXPECT_GT(reads, 0u);
  EXPECT_LE(reads, 32u);  // only the cold half faults from disk
}

TEST(NodeKernel, SharedImageAndOutputReusedAcrossSpawns) {
  NodeKernel node(fast_cfg());
  node.stage_input_file("/bin/toy", 64 * 1024);
  node.spawn(toy_trace());
  EXPECT_NO_THROW(node.spawn(toy_trace()));
  EXPECT_TRUE(node.run_until_done(sec(200)));
  // Only one /bin/toy and one /data/toy.out exist.
  EXPECT_TRUE(node.fsys().lookup("/bin/toy").has_value());
  EXPECT_TRUE(node.fsys().lookup("/data/toy.out").has_value());
}

TEST(NodeKernel, TwoInstancesWithDistinctOutputsRun) {
  NodeKernel node(fast_cfg());
  node.stage_input_file("/bin/toy", 64 * 1024);
  workload::OpTraceBuilder b1("toy"), b2("toy");
  for (auto* b : {&b1, &b2}) {
    b->set_image_bytes(64 * 1024);
    b->touch_range(0, 8, false);
    b->compute(sec(1));
  }
  b1.append(b1.output_file("/data/o1"), 100);
  b2.append(b2.output_file("/data/o2"), 100);
  node.spawn(std::move(b1).build());
  node.spawn(std::move(b2).build());
  EXPECT_TRUE(node.run_until_done(sec(100)));
}

TEST(NodeKernel, PagingGenerates4KRequests) {
  KernelConfig cfg = fast_cfg();
  cfg.daemons.enabled = false;
  NodeKernel node(cfg);
  node.ioctl_trace(driver::TraceLevel::kStandard);
  workload::OpTraceBuilder b("pig");
  // Anonymous footprint far beyond the frame pool: forced swapping.
  b.set_anon_bytes(cfg.ram_bytes);
  const auto pages = b.peek().anon_pages();
  b.touch_range(b.anon_first_page(), pages, true);
  b.touch_range(b.anon_first_page(), pages / 2, false);  // swap back in
  node.spawn(std::move(b).build());
  ASSERT_TRUE(node.run_until_done(sec(4000)));
  const auto ts = node.collect_trace("paging");
  const double frac4k = analysis::characterize(ts).sizes().fraction(4096);
  EXPECT_GT(frac4k, 0.8);
  const auto mix = analysis::summarize(ts).mix;
  EXPECT_GT(mix.reads, 0u);   // swap-ins
  EXPECT_GT(mix.writes, 0u);  // swap-outs
}

TEST(NodeKernel, FlopsToTimeUsesConfiguredRate) {
  KernelConfig cfg = fast_cfg();
  cfg.cpu_mflops = 25.0;
  NodeKernel node(cfg);
  EXPECT_EQ(node.flops_to_time(25e6), kUsPerSec);
}

}  // namespace
}  // namespace ess::kernel
