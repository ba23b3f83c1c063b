#include "telemetry/consumers.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "telemetry/diff.hpp"
#include "telemetry/snapshot.hpp"
#include "trace/trace_set.hpp"
#include "util/rng.hpp"

namespace ess::telemetry {
namespace {

// A mixed-shape trace exercising every consumer: two dominant sectors, a
// long tail, several size classes, skewed R/W mix.
trace::TraceSet mixed_trace() {
  trace::TraceSet ts("mixed", 0);
  Rng rng(42);
  for (int i = 0; i < 3000; ++i) {
    trace::Record r;
    r.timestamp = static_cast<SimTime>(i) * 400'000 +
                  static_cast<SimTime>(rng.uniform(1000));
    const auto roll = static_cast<std::uint32_t>(rng.uniform(100));
    if (roll < 40) {
      r.sector = 45'000;
    } else if (roll < 65) {
      r.sector = 99'184;
    } else {
      r.sector = static_cast<std::uint32_t>(rng.uniform(1'018'080));
    }
    r.size_bytes = 1024u << rng.uniform(4);
    r.is_write = static_cast<std::uint8_t>(roll % 5 != 0);
    r.outstanding = static_cast<std::uint16_t>(roll % 4);
    ts.add(r);
  }
  ts.set_duration(sec(1250));
  return ts;
}

template <typename Consumer>
void feed(Consumer& c, const trace::TraceSet& ts) {
  for (const auto& r : ts.records()) c.on_record(r);
  c.on_finish(ts.duration());
}

// The pinned figures below are mixed_trace()'s whole-trace batch counts
// (the one-loop-per-metric definitions that tests/analysis/
// characterize_test.cpp keeps as its reference); each consumer must
// reproduce them exactly.
constexpr double kRecords = 3000;

TEST(Consumers, SizeHistogramMatchesBatchAnalysis) {
  const auto ts = mixed_trace();
  SizeHistogramConsumer c;
  feed(c, ts);
  const std::map<std::int64_t, std::uint64_t> cells{
      {1024, 772}, {2048, 753}, {4096, 772}, {8192, 703}};
  EXPECT_EQ(c.histogram().cells(), cells);
  std::uint64_t at_least = 3000;
  for (const auto& [bytes, n] : cells) {
    const auto b = static_cast<std::uint32_t>(bytes);
    EXPECT_DOUBLE_EQ(c.fraction(b), static_cast<double>(n) / kRecords);
    EXPECT_DOUBLE_EQ(c.fraction_at_least(b),
                     static_cast<double>(at_least) / kRecords);
    at_least -= n;
  }
  EXPECT_EQ(c.max_request_bytes(), 8192u);
}

TEST(Consumers, RwMixMatchesBatchAnalysis) {
  const auto ts = mixed_trace();
  RwMixConsumer c;
  feed(c, ts);
  EXPECT_EQ(c.reads(), 583u);
  EXPECT_EQ(c.writes(), 2417u);
  EXPECT_EQ(c.total(), 3000u);
  EXPECT_DOUBLE_EQ(c.read_pct(), 100.0 * 583 / kRecords);
  EXPECT_DOUBLE_EQ(c.write_pct(), 100.0 - 100.0 * 583 / kRecords);
  EXPECT_DOUBLE_EQ(c.requests_per_sec(), kRecords / 1250);
}

TEST(Consumers, SpatialBandsMatchBatchAnalysis) {
  const auto ts = mixed_trace();
  SpatialBandsConsumer c;
  feed(c, ts);
  // Requests per 100K band, sectors 0..1 099 999.
  const std::uint64_t per_band[] = {2031, 107, 119, 111, 95, 110,
                                    95,   93,  103, 111, 25};
  const auto bands = c.bands();
  ASSERT_EQ(bands.size(), std::size(per_band));
  for (std::size_t i = 0; i < bands.size(); ++i) {
    EXPECT_EQ(bands[i].band_start_sector, i * 100'000);
    EXPECT_EQ(bands[i].requests, per_band[i]);
    EXPECT_DOUBLE_EQ(bands[i].pct,
                     100.0 * static_cast<double>(per_band[i]) / kRecords);
  }
}

TEST(Consumers, TopKIsExactWithinCapacityAndMatchesHotSpots) {
  const auto ts = mixed_trace();
  TopKSectorsConsumer c;  // default capacity far above distinct sectors here
  feed(c, ts);
  EXPECT_TRUE(c.exact());
  // The two planted hot sectors, then the lowest-numbered single hits.
  const std::pair<std::uint64_t, std::uint64_t> expected[] = {
      {45'000, 1203}, {99'184, 711}, {1068, 1}, {1276, 1}, {1663, 1},
      {2110, 1},      {2613, 1},     {3310, 1}, {4937, 1}, {5615, 1}};
  const auto top = c.top(10);
  ASSERT_EQ(top.size(), std::size(expected));
  for (std::size_t i = 0; i < top.size(); ++i) {
    EXPECT_EQ(top[i].sector, expected[i].first);
    EXPECT_EQ(top[i].count, expected[i].second);
    EXPECT_EQ(top[i].error, 0u);
    EXPECT_DOUBLE_EQ(top[i].per_sec,
                     static_cast<double>(expected[i].second) / 1250);
  }
}

TEST(Consumers, SpaceSavingEvictsButKeepsTheHeavyHitter) {
  // 4 counters, many distinct sectors: the sketch must go inexact yet keep
  // the sector that owns half the stream, with count >= its true frequency
  // and bounded error.
  TopKSectorsConsumer c(4);
  std::uint64_t true_hot = 0;
  for (int i = 0; i < 4000; ++i) {
    trace::Record r;
    r.timestamp = static_cast<SimTime>(i);
    if (i % 2 == 0) {
      r.sector = 7777;
      ++true_hot;
    } else {
      r.sector = static_cast<std::uint32_t>(10'000 + i);  // all distinct
    }
    r.size_bytes = 1024;
    c.on_record(r);
  }
  c.on_finish(sec(4));
  EXPECT_FALSE(c.exact());
  EXPECT_LE(c.distinct_tracked(), 4u);
  const auto top = c.top(1);
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0].sector, 7777u);
  EXPECT_GE(top[0].count, true_hot);  // space-saving never undercounts
  EXPECT_LE(top[0].count - top[0].error, true_hot);
  // Space-Saving invariant: min counter <= N / capacity.
  const auto all = c.top(4);
  EXPECT_LE(all.back().count, 4000u / 4);
}

/// Test-local Space-Saving reference: a plain vector of counters, a linear
/// search for the sector, and a linear min-scan for the victim, which is
/// the minimum with the lowest index.
class SpaceSavingModel {
 public:
  explicit SpaceSavingModel(std::size_t capacity) : capacity_(capacity) {}

  void add(std::uint64_t sector) {
    for (auto& e : counters_) {
      if (e.sector == sector) {
        ++e.count;
        return;
      }
    }
    if (counters_.size() < capacity_) {
      counters_.push_back({sector, 1, 0, 0.0});
      return;
    }
    exact_ = false;
    std::size_t victim = 0;
    for (std::size_t i = 1; i < counters_.size(); ++i) {
      if (counters_[i].count < counters_[victim].count) victim = i;
    }
    const std::uint64_t floor = counters_[victim].count;
    counters_[victim] = {sector, floor + 1, floor, 0.0};
  }

  /// Every counter by (count desc, sector asc).
  std::vector<TopKSectorsConsumer::Entry> ranked() const {
    auto out = counters_;
    std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
      return a.count != b.count ? a.count > b.count : a.sector < b.sector;
    });
    return out;
  }
  bool exact() const { return exact_; }
  std::size_t size() const { return counters_.size(); }

 private:
  std::size_t capacity_;
  std::vector<TopKSectorsConsumer::Entry> counters_;
  bool exact_ = true;
};

TEST(Consumers, TopKMatchesLinearScanSpaceSavingModel) {
  // Streams of 1-4x more distinct sectors than counters keep the sketch
  // evicting, with many ties at the minimum, so the victim choice (the
  // lowest index) decides every later count and error. Records arrive in
  // spans of random length through the batched path.
  for (const std::size_t capacity : {1u, 8u, 64u, 1000u}) {
    for (std::uint64_t overflow = 1; overflow <= 4; ++overflow) {
      const std::uint64_t population = capacity * overflow;
      Rng rng(capacity * 31 + overflow);
      TopKSectorsConsumer sketch(capacity);
      SpaceSavingModel model(capacity);
      std::vector<trace::Record> span;
      const std::size_t records = 24 * capacity + 200;
      for (std::size_t i = 0; i < records; ++i) {
        trace::Record r;
        // A hot eighth of the population takes half the stream.
        const std::uint64_t pick = rng.uniform(2) == 0
                                       ? rng.uniform(population / 8 + 1)
                                       : rng.uniform(population);
        r.sector = static_cast<std::uint32_t>(pick * 7919 + 13);
        span.push_back(r);
        model.add(r.sector);
        if (rng.uniform(32) == 0 || i + 1 == records) {
          sketch.on_records(span.data(), span.size());
          span.clear();
          const auto want = model.ranked();
          const auto got = sketch.top(capacity);
          ASSERT_EQ(got.size(), want.size())
              << "capacity " << capacity << " record " << i;
          for (std::size_t k = 0; k < want.size(); ++k) {
            ASSERT_EQ(got[k].sector, want[k].sector)
                << "capacity " << capacity << " record " << i << " rank " << k;
            ASSERT_EQ(got[k].count, want[k].count);
            ASSERT_EQ(got[k].error, want[k].error);
          }
          ASSERT_EQ(sketch.exact(), model.exact());
          ASSERT_EQ(sketch.distinct_tracked(), model.size());
        }
      }
      if (overflow > 1) {
        EXPECT_FALSE(sketch.exact()) << "capacity " << capacity;
      }
    }
  }
}

TEST(Consumers, WindowRateSeriesMatchesRateOverTime) {
  const auto ts = mixed_trace();
  WindowRateConsumer c(sec(10));
  feed(c, ts);
  // One record per 400 ms fills the 120 windows up to the last record at
  // 1199.6 s with 25 each; the 5 windows of the idle tail up to the
  // declared 1250 s are empty.
  ASSERT_EQ(c.series().size(), 125u);
  for (std::size_t i = 0; i < c.series().size(); ++i) {
    EXPECT_DOUBLE_EQ(c.series()[i], i < 120 ? 2.5 : 0.0) << i;
  }
}

TEST(Consumers, WindowRateClampsRecordsPastDuration) {
  // A record beyond the declared duration lands in the last window.
  trace::TraceSet ts("clamp", 0);
  for (SimTime t : {sec(1), sec(5), sec(25)}) {
    trace::Record r;
    r.timestamp = t;
    r.size_bytes = 1024;
    ts.add(r);
  }
  ts.set_duration(sec(20));
  WindowRateConsumer c(sec(10));
  feed(c, ts);
  ASSERT_EQ(c.series().size(), 2u);
  EXPECT_DOUBLE_EQ(c.series()[0], 0.2);
  EXPECT_DOUBLE_EQ(c.series()[1], 0.1);
}

TEST(Consumers, SlidingRateCountsOnlyTheWindow) {
  SlidingRateConsumer c(sec(10));
  const SimTime stamps[] = {sec(1), sec(2), sec(3), sec(30), sec(31)};
  for (SimTime t : stamps) {
    trace::Record r;
    r.timestamp = t;
    r.size_bytes = 1024;
    c.on_record(r);
  }
  // Window (21 s, 31 s]: the three early records aged out.
  EXPECT_DOUBLE_EQ(c.rate(), 2.0 / 10.0);
}

TEST(Consumers, StreamSummaryResultAggregatesEverything) {
  const auto ts = mixed_trace();
  StreamSummary s;
  feed(s, ts);
  EXPECT_TRUE(s.finished());
  const auto r = s.result("mixed");
  EXPECT_EQ(r.experiment, "mixed");
  EXPECT_EQ(r.records, ts.size());
  EXPECT_DOUBLE_EQ(r.duration_sec, to_seconds(ts.duration()));
  EXPECT_EQ(r.reads, 583u);
  EXPECT_EQ(r.writes, 2417u);
  EXPECT_DOUBLE_EQ(r.requests_per_sec, kRecords / 1250);
  EXPECT_TRUE(r.hot_exact);
  ASSERT_FALSE(r.hot.empty());
  EXPECT_EQ(r.hot[0].sector, 45'000u);
  double size_total = 0;
  for (const auto& [size, pct] : r.size_pct) size_total += pct;
  EXPECT_NEAR(size_total, 100.0, 1e-9);
  double band_total = 0;
  for (const auto& [band, pct] : r.band_pct) band_total += pct;
  EXPECT_NEAR(band_total, 100.0, 1e-9);
}

TEST(Consumers, UnfinishedSummaryUsesLastTimestamp) {
  StreamSummary s;
  trace::Record r;
  r.timestamp = sec(40);
  r.size_bytes = 1024;
  s.on_record(r);
  EXPECT_FALSE(s.finished());
  const auto res = s.result();
  EXPECT_DOUBLE_EQ(res.duration_sec, 40.0);
  EXPECT_EQ(res.records, 1u);
}

TEST(Snapshots, EmitterFiresOncePerPeriodPlusFinal) {
  StreamSummary s;
  std::vector<Snapshot> seen;
  SnapshotEmitter emitter(s, sec(10),
                          [&](const Snapshot& snap) { seen.push_back(snap); });
  FanoutSink fan;
  fan.add(&s);
  fan.add(&emitter);
  // Records at t = 2, 12, 15, 34 s: boundaries crossed at 10 s (record at
  // 12) and at 20 + 30 s (record at 34, two boundaries at once).
  for (std::uint64_t t : {2, 12, 15, 34}) {
    trace::Record r;
    r.timestamp = sec(t);
    r.size_bytes = 2048;
    r.is_write = 1;
    fan.on_record(r);
  }
  fan.on_finish(sec(40));
  ASSERT_EQ(seen.size(), 4u);  // 10 s, 20 s, 30 s, final
  EXPECT_EQ(emitter.emitted(), 4u);
  EXPECT_EQ(seen[0].t, sec(10));   // snapshots stamp the boundary crossed
  EXPECT_EQ(seen[0].records, 2u);  // includes the triggering record
  EXPECT_EQ(seen[1].t, sec(20));
  EXPECT_EQ(seen[2].t, sec(30));
  EXPECT_EQ(seen[3].t, sec(40));
  EXPECT_TRUE(seen[3].final_snapshot);
  EXPECT_FALSE(seen[0].final_snapshot);
  EXPECT_EQ(seen[3].records, 4u);
  EXPECT_EQ(seen[3].writes, 4u);
  EXPECT_EQ(seen[3].max_request_bytes, 2048u);
}

TEST(Snapshots, ProgressLineCarriesTheHeadlineNumbers) {
  Snapshot s;
  s.t = sec(420);
  s.records = 1042;
  s.writes = 1024;
  s.write_pct = 98.3;
  s.recent_rate = 16.4;
  s.max_request_bytes = 16 * 1024;
  s.top_sector = 45'000;
  s.top_count = 612;
  const auto line = render_progress_line(s);
  EXPECT_NE(line.find("420"), std::string::npos);
  EXPECT_NE(line.find("1042"), std::string::npos);
  EXPECT_NE(line.find("98.3"), std::string::npos);
  EXPECT_NE(line.find("45000"), std::string::npos);
  EXPECT_EQ(line.find("final"), std::string::npos);
  s.final_snapshot = true;
  EXPECT_NE(render_progress_line(s).find("final"), std::string::npos);
}

TEST(Diff, IdenticalSummariesPass) {
  const auto ts = mixed_trace();
  StreamSummary a;
  StreamSummary b;
  feed(a, ts);
  feed(b, ts);
  const auto d = diff_summaries(a.result("x"), b.result("x"));
  EXPECT_TRUE(d.ok);
  EXPECT_EQ(d.failed, 0u);
  EXPECT_NE(render_diff(d).find("OK"), std::string::npos);
}

TEST(Diff, RwShiftBeyondToleranceFails) {
  const auto ts = mixed_trace();
  StreamSummary a;
  feed(a, ts);
  // Same records with every read turned into a write: mix moves ~20 points.
  StreamSummary b;
  for (auto r : ts.records()) {
    r.is_write = 1;
    b.on_record(r);
  }
  b.on_finish(ts.duration());
  const auto d = diff_summaries(a.result(), b.result());
  EXPECT_FALSE(d.ok);
  EXPECT_GT(d.failed, 0u);
  const auto text = render_diff(d);
  EXPECT_NE(text.find("!!"), std::string::npos);
  EXPECT_NE(text.find("FAIL"), std::string::npos);
}

TEST(Diff, HotSetReplacementTripsTheOverlapCheck) {
  trace::TraceSet a_ts("a", 0);
  trace::TraceSet b_ts("b", 0);
  for (int i = 0; i < 1000; ++i) {
    trace::Record r;
    r.timestamp = static_cast<SimTime>(i) * 1000;
    r.size_bytes = 1024;
    r.sector = static_cast<std::uint32_t>(100 + i % 5);  // hot set A
    a_ts.add(r);
    r.sector = static_cast<std::uint32_t>(900'000 + i % 5);  // disjoint set
    b_ts.add(r);
  }
  a_ts.set_duration(sec(1));
  b_ts.set_duration(sec(1));
  StreamSummary a;
  StreamSummary b;
  feed(a, a_ts);
  feed(b, b_ts);
  const auto d = diff_summaries(a.result(), b.result());
  EXPECT_FALSE(d.ok);
  bool overlap_failed = false;
  for (const auto& e : d.entries) {
    if (e.metric.find("overlap") != std::string::npos && !e.ok) {
      overlap_failed = true;
    }
  }
  EXPECT_TRUE(overlap_failed);
}

TEST(Diff, LooseTolerancesAcceptSmallDrift) {
  const auto ts = mixed_trace();
  StreamSummary a;
  feed(a, ts);
  // Drop the last 2% of records: counts drift slightly, shape holds.
  StreamSummary b;
  const std::size_t keep = ts.size() - ts.size() / 50;
  for (std::size_t i = 0; i < keep; ++i) b.on_record(ts.records()[i]);
  b.on_finish(ts.duration());
  DiffTolerance tol;
  tol.scalar_rel = 0.05;
  tol.pct_points = 2.0;
  const auto d = diff_summaries(a.result(), b.result(), tol);
  EXPECT_TRUE(d.ok) << render_diff(d);
}

}  // namespace
}  // namespace ess::telemetry
