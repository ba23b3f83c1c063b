// Focused tests of the system daemons — the generators of the paper's
// baseline workload.
#include <gtest/gtest.h>

#include "analysis/characterize.hpp"
#include "analysis/patterns.hpp"
#include "kernel/node_kernel.hpp"

namespace ess::kernel {
namespace {

trace::TraceSet capture_baseline(KernelConfig cfg, SimTime dur) {
  NodeKernel node(cfg);
  node.run_for(sec(5));
  const SimTime t0 = node.now();
  node.ioctl_trace(driver::TraceLevel::kStandard);
  node.run_for(dur);
  node.ioctl_trace(driver::TraceLevel::kOff);
  auto ts = node.collect_trace("baseline");
  ts.rebase(t0);
  ts.set_duration(dur);
  return ts;
}

TEST(Daemons, DisabledMeansSilence) {
  KernelConfig cfg;
  cfg.daemons.enabled = false;
  const auto ts = capture_baseline(cfg, sec(300));
  EXPECT_EQ(ts.size(), 0u);
}

TEST(Daemons, SyslogActivityHitsItsBlockGroup) {
  KernelConfig cfg;
  const auto ts = capture_baseline(cfg, sec(600));
  bool hit = false;
  const auto lo = cfg.layout.syslog_goal_block * 2 - 64;
  const auto hi = cfg.layout.syslog_goal_block * 2 + 512;
  for (const auto& r : ts.records()) {
    if (r.sector >= lo && r.sector <= hi) hit = true;
  }
  EXPECT_TRUE(hit);
}

TEST(Daemons, KernelLogLandsAtHighSectors) {
  KernelConfig cfg;
  const auto ts = capture_baseline(cfg, sec(600));
  std::uint64_t high_writes = 0;
  for (const auto& r : ts.records()) {
    if (r.sector > 900'000 && r.is_write) ++high_writes;
  }
  EXPECT_GT(high_writes, 5u);
}

TEST(Daemons, TraceDrainFeedsTheTraceFileRegion) {
  KernelConfig cfg;
  const auto ts = capture_baseline(cfg, sec(900));
  const analysis::RegionMap map;
  bool trace_file_writes = false;
  for (const auto& r : ts.records()) {
    if (map.classify(r.sector) == analysis::Region::kTraceFile &&
        r.is_write) {
      trace_file_writes = true;
    }
  }
  // The instrumentation's own drainage is part of the measured load.
  EXPECT_TRUE(trace_file_writes);
}

TEST(Daemons, BaselineArrivalIsRoughlyPeriodic) {
  KernelConfig cfg;
  const auto ts = capture_baseline(cfg, sec(600));
  const auto ia = analysis::inter_arrival(ts);
  // Daemon-driven: far from a heavy-tailed arrival process.
  EXPECT_LT(ia.cv, 3.0);
  EXPECT_GT(ia.gaps_sec.mean(), 0.2);
}

TEST(Daemons, FasterSyslogRaisesTheRate) {
  KernelConfig slow;
  slow.daemons.syslogd_period = sec(8);
  KernelConfig fast;
  fast.daemons.syslogd_period = sec(1);
  fast.daemons.syslogd_bytes = 400;
  const auto s = analysis::summarize(capture_baseline(slow, sec(600))).mix;
  const auto f = analysis::summarize(capture_baseline(fast, sec(600))).mix;
  EXPECT_GT(f.requests_per_sec, s.requests_per_sec);
}

TEST(Daemons, UpdatePeriodControlsSuperblockCadence) {
  KernelConfig cfg;
  cfg.daemons.update_period = sec(30);
  const auto ts = capture_baseline(cfg, sec(600));
  std::uint64_t superblock_writes = 0;
  for (const auto& r : ts.records()) {
    if (r.sector == 2 && r.is_write) ++superblock_writes;  // block 1
  }
  // ~one per update period over 600 s.
  EXPECT_GE(superblock_writes, 15u);
  EXPECT_LE(superblock_writes, 25u);
}

TEST(Daemons, RingOverflowIsCountedNotFatal) {
  KernelConfig cfg;
  cfg.trace_ring_capacity = 4;  // absurdly small
  cfg.daemons.trace_drain_period = sec(600);  // drain too rarely
  NodeKernel node(cfg);
  node.ioctl_trace(driver::TraceLevel::kStandard);
  node.run_for(sec(300));
  // The kernel survives; the capture is lossy but well-defined.
  EXPECT_NO_THROW(node.collect_trace("overflow"));
}

}  // namespace
}  // namespace ess::kernel
