#include "replay/replayer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

namespace ess::replay {
namespace {

trace::TraceSet make_trace(int n, SimTime spacing, std::uint32_t stride) {
  trace::TraceSet ts("replay-input", 0);
  for (int i = 0; i < n; ++i) {
    trace::Record r;
    r.timestamp = static_cast<SimTime>(i) * spacing;
    r.sector = static_cast<std::uint32_t>(i) * stride % 1'000'000;
    r.size_bytes = 1024;
    r.is_write = static_cast<std::uint8_t>(i % 2);
    ts.add(r);
  }
  ts.set_duration(static_cast<SimTime>(n) * spacing);
  return ts;
}

TEST(Replayer, EmptyTraceYieldsEmptyResult) {
  const auto r = replay(trace::TraceSet{}, ReplayConfig{});
  EXPECT_EQ(r.requests, 0u);
  EXPECT_EQ(r.makespan, 0u);
}

TEST(Replayer, CompletesEveryRequest) {
  const auto ts = make_trace(200, msec(50), 5000);
  const auto r = replay(ts, ReplayConfig{});
  EXPECT_EQ(r.requests, 200u);
  EXPECT_EQ(r.response_ms.count(), 200u);
  EXPECT_GT(r.mean_response_ms(), 0.0);
  EXPECT_GT(r.makespan, 0u);
}

TEST(Replayer, Deterministic) {
  const auto ts = make_trace(100, msec(20), 7777);
  const auto a = replay(ts, ReplayConfig{});
  const auto b = replay(ts, ReplayConfig{});
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_DOUBLE_EQ(a.mean_response_ms(), b.mean_response_ms());
}

TEST(Replayer, SparseArrivalsHaveLowUtilization) {
  const auto ts = make_trace(20, sec(5), 1000);
  const auto r = replay(ts, ReplayConfig{});
  EXPECT_LT(r.utilization, 0.05);
  // Each request serviced in isolation: response ~ service time (< 60 ms).
  EXPECT_LT(r.mean_response_ms(), 60.0);
}

TEST(Replayer, DenseArrivalsQueueUp) {
  const auto sparse = replay(make_trace(200, msec(200), 400'000),
                             ReplayConfig{});
  const auto dense = replay(make_trace(200, usec(100), 400'000),
                            ReplayConfig{});
  EXPECT_GT(dense.mean_response_ms(), sparse.mean_response_ms() * 2);
  EXPECT_GT(dense.utilization, sparse.utilization);
}

TEST(Replayer, FasterMediaImprovesResponse) {
  const auto ts = make_trace(300, msec(5), 12345);
  ReplayConfig slow;
  slow.disk.transfer_mb_per_s = 1.0;
  ReplayConfig fast;
  fast.disk.transfer_mb_per_s = 10.0;
  EXPECT_LT(replay(ts, fast).mean_response_ms(),
            replay(ts, slow).mean_response_ms());
}

TEST(Replayer, MergingReducesPhysicalRequests) {
  // A stream of back-to-back adjacent 1 KB writes.
  trace::TraceSet ts("adjacent", 0);
  for (int i = 0; i < 64; ++i) {
    trace::Record r;
    r.timestamp = static_cast<SimTime>(i);  // all nearly simultaneous
    r.sector = 10'000 + static_cast<std::uint32_t>(i) * 2;
    r.size_bytes = 1024;
    r.is_write = 1;
    ts.add(r);
  }
  ReplayConfig merged;
  merged.max_merge_sectors = 64;
  const auto rm = replay(ts, merged);
  EXPECT_GT(rm.merged, 0u);
  const auto plain = replay(ts, ReplayConfig{});
  EXPECT_EQ(plain.merged, 0u);
  // Fewer, larger operations finish the batch sooner.
  EXPECT_LE(rm.makespan, plain.makespan);
}

TEST(Replayer, P95AtLeastMean) {
  const auto ts = make_trace(100, msec(10), 9999);
  const auto r = replay(ts, ReplayConfig{});
  EXPECT_GE(r.p95_response_ms(), r.mean_response_ms());
}

TEST(Replayer, P95IsTheExactQuantileOfResponseTimes) {
  // Requests 1 s apart never queue, so each response time is exactly the
  // drive model's service time from the previous request's end sector.
  // Every tenth request seeks across the disk: a skewed distribution on
  // which a mean + 2 sigma estimate would miss the true 95th percentile.
  trace::TraceSet ts("isolated", 0);
  for (int i = 0; i < 40; ++i) {
    trace::Record r;
    r.timestamp = static_cast<SimTime>(i) * sec(1);
    r.sector = i % 10 == 9 ? 900'000 : 1000 + static_cast<std::uint32_t>(i) * 8;
    r.size_bytes = 4096;
    r.is_write = static_cast<std::uint8_t>(i % 3 == 0);
    ts.add(r);
  }
  const ReplayConfig cfg;
  const disk::ServiceModel model(disk::beowulf_geometry(), cfg.disk);
  std::vector<double> expected;
  std::uint64_t head_sector = 0;
  for (const auto& r : ts.records()) {
    disk::Request req;
    req.sector = r.sector;
    req.sector_count = r.size_bytes / 512;
    const SimTime service = model.service_time(
        req, r.timestamp, model.geometry().cylinder_of(head_sector));
    ASSERT_LT(service, sec(1));
    expected.push_back(static_cast<double>(service) / 1e3);
    head_sector = req.end_sector() - 1;
  }
  std::sort(expected.begin(), expected.end());

  const auto r = replay(ts, cfg);
  auto got = r.response_times_ms;
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, expected);
  // p = 95 over 40 values: rank 0.95 * 39 = 37.05, between the 38th and
  // 39th smallest.
  const double p95 = expected[37] * 0.95 + expected[38] * 0.05;
  EXPECT_NEAR(r.p95_response_ms(), p95, 1e-9);
  EXPECT_LT(r.p95_response_ms(), expected.back());
}

}  // namespace
}  // namespace ess::replay
