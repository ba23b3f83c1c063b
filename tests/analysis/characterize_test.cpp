#include "analysis/characterize.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <unordered_map>

#include "util/rng.hpp"

namespace ess::analysis {
namespace {

trace::Record rec(SimTime ts, std::uint32_t sector, std::uint32_t size,
                  bool write) {
  trace::Record r;
  r.timestamp = ts;
  r.sector = sector;
  r.size_bytes = size;
  r.is_write = write ? 1 : 0;
  return r;
}

trace::TraceSet sample() {
  trace::TraceSet ts("sample", 0);
  // 3 writes of 1K at sector 100; 1 read of 4K at sector 200'000.
  ts.add(rec(sec(1), 100, 1024, true));
  ts.add(rec(sec(2), 100, 1024, true));
  ts.add(rec(sec(3), 200'000, 4096, false));
  ts.add(rec(sec(4), 100, 1024, true));
  ts.set_duration(sec(10));
  return ts;
}

// One sector takes 90 of 100 requests; ten others take one each.
trace::TraceSet skewed() {
  trace::TraceSet ts("skewed", 0);
  for (int i = 0; i < 90; ++i) ts.add(rec(sec(1), 5, 1024, true));
  for (int i = 0; i < 10; ++i) {
    ts.add(rec(sec(2), 1000u + static_cast<std::uint32_t>(i), 1024, true));
  }
  ts.set_duration(sec(10));
  return ts;
}

// Ten requests in the first 10 s window, one in the second.
trace::TraceSet two_windows() {
  trace::TraceSet ts("two_windows", 0);
  for (int i = 0; i < 10; ++i) ts.add(rec(sec(1), 0, 1024, true));
  ts.add(rec(sec(15), 0, 1024, true));
  ts.set_duration(sec(20));
  return ts;
}

// A trace from `counts`: sector -> number of 1 KB writes at t = 1 s.
trace::TraceSet from_counts(const std::map<std::uint32_t, int>& counts) {
  trace::TraceSet ts("counts", 0);
  for (const auto& [sector, n] : counts) {
    for (int i = 0; i < n; ++i) ts.add(rec(sec(1), sector, 1024, true));
  }
  ts.set_duration(sec(10));
  return ts;
}

TEST(RwMix, CountsAndRates) {
  const auto c = characterize(sample());
  EXPECT_EQ(c.rw().reads(), 1u);
  EXPECT_EQ(c.rw().writes(), 3u);
  EXPECT_EQ(c.rw().total(), 4u);
  EXPECT_DOUBLE_EQ(c.rw().read_pct(), 25.0);
  EXPECT_DOUBLE_EQ(c.rw().write_pct(), 75.0);
  EXPECT_DOUBLE_EQ(c.rw().requests_per_sec(), 0.4);
}

TEST(RwMix, EmptyTraceIsZero) {
  const auto c = characterize(trace::TraceSet{});
  EXPECT_EQ(c.rw().total(), 0u);
  EXPECT_EQ(c.rw().requests_per_sec(), 0.0);
}

TEST(SizeClasses, FractionsByExactSize) {
  const auto c = characterize(sample());
  EXPECT_DOUBLE_EQ(c.sizes().fraction(1024), 0.75);
  EXPECT_DOUBLE_EQ(c.sizes().fraction(4096), 0.25);
  EXPECT_DOUBLE_EQ(c.sizes().fraction(2048), 0.0);
  EXPECT_DOUBLE_EQ(c.sizes().fraction_at_least(1024), 1.0);
  EXPECT_DOUBLE_EQ(c.sizes().fraction_at_least(4096), 0.25);
}

TEST(RequestSizeHistogram, BucketsByBytes) {
  const auto c = characterize(sample());
  EXPECT_EQ(c.sizes().histogram().count(1024), 3u);
  EXPECT_EQ(c.sizes().histogram().count(4096), 1u);
}

TEST(TimeSeries, PointsCarryUnits) {
  const auto pts = size_time_series(sample());
  ASSERT_EQ(pts.size(), 4u);
  EXPECT_DOUBLE_EQ(pts[0].t_sec, 1.0);
  EXPECT_DOUBLE_EQ(pts[0].size_kb, 1.0);
  EXPECT_TRUE(pts[0].is_write);
  EXPECT_DOUBLE_EQ(pts[2].size_kb, 4.0);
  EXPECT_FALSE(pts[2].is_write);

  const auto sp = sector_time_series(sample());
  EXPECT_DOUBLE_EQ(sp[2].sector, 200'000.0);
}

TEST(SpatialLocality, BandsOf100K) {
  const auto bands = characterize(sample()).spatial().bands();
  ASSERT_EQ(bands.size(), 2u);
  EXPECT_EQ(bands[0].band_start_sector, 0u);
  EXPECT_EQ(bands[0].requests, 3u);
  EXPECT_DOUBLE_EQ(bands[0].pct, 75.0);
  EXPECT_EQ(bands[1].band_start_sector, 200'000u);
  EXPECT_DOUBLE_EQ(bands[1].pct, 25.0);
}

TEST(TemporalLocality, FrequencyPerSecond) {
  const auto freqs = temporal_locality(characterize(sample()), 2);
  ASSERT_EQ(freqs.size(), 1u);  // only sector 100 has >= 2 accesses
  EXPECT_EQ(freqs[0].sector, 100u);
  EXPECT_EQ(freqs[0].accesses, 3u);
  EXPECT_DOUBLE_EQ(freqs[0].per_sec, 0.3);
}

TEST(HotSpots, RankedByCount) {
  const auto hot = characterize(sample()).hot().top(2);
  ASSERT_EQ(hot.size(), 2u);
  EXPECT_EQ(hot[0].sector, 100u);
  EXPECT_EQ(hot[1].sector, 200'000u);
}

TEST(ReuseGap, AveragesSameSectorIntervals) {
  // Sector 100 accessed at 1s, 2s, 4s: gaps 1s and 2s -> mean 1.5s.
  EXPECT_DOUBLE_EQ(mean_reuse_gap_sec(sample()), 1.5);
}

TEST(ReuseGap, NoReuseIsZero) {
  trace::TraceSet ts;
  ts.add(rec(sec(1), 1, 1024, true));
  ts.add(rec(sec(2), 2, 1024, true));
  EXPECT_DOUBLE_EQ(mean_reuse_gap_sec(ts), 0.0);
}

TEST(Coverage, SkewedTraceConcentrates) {
  const auto c = characterize(skewed());
  // One sector out of 11 covers 90%.
  EXPECT_NEAR(disk_fraction_for_coverage(c, 0.9, c.hot().distinct_tracked()),
              1.0 / 11.0, 1e-9);
  EXPECT_NEAR(disk_fraction_for_coverage(c, 0.9, 1000), 1.0 / 1000, 1e-9);
}

// Against the accessed set (distinct_tracked() as the denominator).
TEST(CoverageFraction, UniformNeedsProportionalKeys) {
  std::map<std::uint32_t, int> counts;
  for (std::uint32_t k = 0; k < 10; ++k) counts[k] = 10;
  const auto c = characterize(from_counts(counts));
  EXPECT_NEAR(disk_fraction_for_coverage(c, 0.9, c.hot().distinct_tracked()),
              0.9, 1e-9);
}

TEST(CoverageFraction, SkewedNeedsFewKeys) {
  std::map<std::uint32_t, int> counts{{0, 900}};
  for (std::uint32_t k = 1; k <= 100; ++k) counts[k] = 1;
  const auto c = characterize(from_counts(counts));
  // One key covers 90% of the weight.
  EXPECT_NEAR(disk_fraction_for_coverage(c, 0.9, c.hot().distinct_tracked()),
              1.0 / 101.0, 1e-9);
}

TEST(CoverageFraction, EmptyIsZero) {
  const auto c = characterize(trace::TraceSet{});
  EXPECT_EQ(disk_fraction_for_coverage(c, 0.9, c.hot().distinct_tracked()),
            0.0);
}

TEST(RateOverTime, WindowsCountPerSecond) {
  const auto ts = two_windows();
  telemetry::WindowRateConsumer rates(sec(10));
  rates.on_records(ts.records().data(), ts.size());
  rates.on_finish(ts.duration());
  ASSERT_EQ(rates.series().size(), 2u);
  EXPECT_DOUBLE_EQ(rates.series()[0], 1.0);  // 10 requests / 10 s
  EXPECT_DOUBLE_EQ(rates.series()[1], 0.1);
}

TEST(Summarize, FillsEveryField) {
  const auto s = summarize(sample());
  EXPECT_EQ(s.experiment, "sample");
  EXPECT_EQ(s.mix.total, 4u);
  EXPECT_DOUBLE_EQ(s.pct_1k, 75.0);
  EXPECT_DOUBLE_EQ(s.pct_4k, 25.0);
  EXPECT_EQ(s.max_request_bytes, 4096u);
  EXPECT_DOUBLE_EQ(s.duration_sec, 10.0);
}

// The naive whole-trace definitions of the Section 4 metrics: one loop per
// metric over the records. characterize() must reproduce every value
// exactly, doubles included.
namespace reference {

RwMix rw_mix(const trace::TraceSet& ts) {
  RwMix m;
  for (const auto& r : ts.records()) {
    if (r.is_write) {
      ++m.writes;
    } else {
      ++m.reads;
    }
  }
  m.total = m.reads + m.writes;
  if (m.total > 0) {
    m.read_pct = 100.0 * static_cast<double>(m.reads) /
                 static_cast<double>(m.total);
    m.write_pct = 100.0 - m.read_pct;
  }
  const double dur = to_seconds(ts.duration());
  m.requests_per_sec = dur > 0 ? static_cast<double>(m.total) / dur : 0.0;
  return m;
}

std::map<std::int64_t, std::uint64_t> request_size_histogram(
    const trace::TraceSet& ts) {
  std::map<std::int64_t, std::uint64_t> h;
  for (const auto& r : ts.records()) ++h[r.size_bytes];
  return h;
}

double size_class_fraction(const trace::TraceSet& ts, std::uint32_t bytes) {
  if (ts.empty()) return 0.0;
  std::uint64_t n = 0;
  for (const auto& r : ts.records()) {
    if (r.size_bytes == bytes) ++n;
  }
  return static_cast<double>(n) / static_cast<double>(ts.size());
}

double size_at_least_fraction(const trace::TraceSet& ts,
                              std::uint32_t bytes) {
  if (ts.empty()) return 0.0;
  std::uint64_t n = 0;
  for (const auto& r : ts.records()) {
    if (r.size_bytes >= bytes) ++n;
  }
  return static_cast<double>(n) / static_cast<double>(ts.size());
}

std::uint32_t max_request_bytes(const trace::TraceSet& ts) {
  std::uint32_t m = 0;
  for (const auto& r : ts.records()) m = std::max(m, r.size_bytes);
  return m;
}

struct Band {
  std::uint64_t band_start_sector = 0;
  std::uint64_t requests = 0;
  double pct = 0;
};
std::vector<Band> spatial_locality(const trace::TraceSet& ts) {
  constexpr std::uint64_t kBand = 100'000;
  std::map<std::uint64_t, std::uint64_t> bands;
  for (const auto& r : ts.records()) bands[r.sector / kBand * kBand]++;
  std::vector<Band> out;
  const auto total = static_cast<double>(ts.size());
  for (const auto& [start, n] : bands) {
    out.push_back(Band{start, n,
                       total > 0 ? 100.0 * static_cast<double>(n) / total
                                 : 0.0});
  }
  return out;
}

/// Ascending by sector. A zero-length capture has no rate: per_sec is 0,
/// as the request rate is.
std::vector<SectorFrequency> temporal_locality(const trace::TraceSet& ts,
                                               std::uint64_t min_accesses) {
  std::unordered_map<std::uint64_t, std::uint64_t> counts;
  for (const auto& r : ts.records()) counts[r.sector]++;
  const double dur = to_seconds(ts.duration());
  std::vector<SectorFrequency> out;
  for (const auto& [sector, n] : counts) {
    if (n >= min_accesses) {
      out.push_back(SectorFrequency{
          sector, n, dur > 0 ? static_cast<double>(n) / dur : 0.0});
    }
  }
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return a.sector < b.sector;
  });
  return out;
}

/// Every accessed sector by (accesses desc, sector asc).
std::vector<SectorFrequency> hot_spots(const trace::TraceSet& ts) {
  auto all = temporal_locality(ts, 1);
  std::sort(all.begin(), all.end(), [](const auto& a, const auto& b) {
    if (a.accesses != b.accesses) return a.accesses > b.accesses;
    return a.sector < b.sector;
  });
  return all;
}

double disk_fraction_for_coverage(const trace::TraceSet& ts, double coverage,
                                  std::uint64_t total_sectors) {
  if (ts.empty() || total_sectors == 0) return 0.0;
  std::unordered_map<std::uint64_t, std::uint64_t> counts;
  for (const auto& r : ts.records()) counts[r.sector]++;
  std::vector<std::uint64_t> freq;
  for (const auto& [s, n] : counts) freq.push_back(n);
  std::sort(freq.begin(), freq.end(), std::greater<>());
  const double target = coverage * static_cast<double>(ts.size());
  double acc = 0;
  std::uint64_t used = 0;
  for (const auto n : freq) {
    acc += static_cast<double>(n);
    ++used;
    if (acc >= target) break;
  }
  return static_cast<double>(used) / static_cast<double>(total_sectors);
}

std::size_t distinct_sectors(const trace::TraceSet& ts) {
  std::unordered_map<std::uint64_t, int> seen;
  for (const auto& r : ts.records()) seen[r.sector] = 1;
  return seen.size();
}

std::vector<double> rate_over_time(const trace::TraceSet& ts,
                                   SimTime window) {
  const SimTime dur = ts.duration();
  if (dur == 0 || window == 0) return {};
  std::vector<double> out((dur + window - 1) / window, 0.0);
  for (const auto& r : ts.records()) {
    const std::size_t w =
        std::min<std::size_t>(r.timestamp / window, out.size() - 1);
    out[w] += 1.0;
  }
  const double wsec = to_seconds(window);
  for (auto& v : out) v /= wsec;
  return out;
}

}  // namespace reference

void expect_matches_reference(const trace::TraceSet& ts) {
  SCOPED_TRACE(ts.experiment() + ", " + std::to_string(ts.size()) +
               " records");
  const auto c = characterize(ts);

  const auto mix = reference::rw_mix(ts);
  EXPECT_EQ(c.records(), ts.size());
  EXPECT_EQ(c.rw().reads(), mix.reads);
  EXPECT_EQ(c.rw().writes(), mix.writes);
  EXPECT_EQ(c.rw().total(), mix.total);
  EXPECT_EQ(c.rw().read_pct(), mix.read_pct);
  EXPECT_EQ(c.rw().write_pct(), mix.write_pct);
  EXPECT_EQ(c.rw().requests_per_sec(), mix.requests_per_sec);

  const auto hist = reference::request_size_histogram(ts);
  EXPECT_EQ(c.sizes().histogram().cells(), hist);
  std::vector<std::uint32_t> sizes{1024, 2048, 4096, 8192, 16384, 32768};
  for (const auto& [size, n] : hist) {
    sizes.push_back(static_cast<std::uint32_t>(size));
  }
  for (const auto bytes : sizes) {
    EXPECT_EQ(c.sizes().fraction(bytes),
              reference::size_class_fraction(ts, bytes))
        << bytes;
    EXPECT_EQ(c.sizes().fraction_at_least(bytes),
              reference::size_at_least_fraction(ts, bytes))
        << bytes;
  }
  EXPECT_EQ(c.sizes().max_request_bytes(), reference::max_request_bytes(ts));

  const auto bands = c.spatial().bands();
  const auto ref_bands = reference::spatial_locality(ts);
  ASSERT_EQ(bands.size(), ref_bands.size());
  for (std::size_t i = 0; i < bands.size(); ++i) {
    EXPECT_EQ(bands[i].band_start_sector, ref_bands[i].band_start_sector);
    EXPECT_EQ(bands[i].requests, ref_bands[i].requests);
    EXPECT_EQ(bands[i].pct, ref_bands[i].pct);
  }

  EXPECT_TRUE(c.hot().exact());
  const auto hot = c.hot().top(ts.size() + 1);
  const auto ref_hot = reference::hot_spots(ts);
  EXPECT_EQ(c.hot().distinct_tracked(), ref_hot.size());
  ASSERT_EQ(hot.size(), ref_hot.size());
  for (std::size_t i = 0; i < hot.size(); ++i) {
    EXPECT_EQ(hot[i].sector, ref_hot[i].sector);
    EXPECT_EQ(hot[i].count, ref_hot[i].accesses);
    EXPECT_EQ(hot[i].error, 0u);
    EXPECT_EQ(hot[i].per_sec, ref_hot[i].per_sec);
  }

  for (const std::uint64_t min_accesses : {1u, 2u, 5u}) {
    const auto freqs = temporal_locality(c, min_accesses);
    const auto ref_freqs = reference::temporal_locality(ts, min_accesses);
    ASSERT_EQ(freqs.size(), ref_freqs.size());
    for (std::size_t i = 0; i < freqs.size(); ++i) {
      EXPECT_EQ(freqs[i].sector, ref_freqs[i].sector);
      EXPECT_EQ(freqs[i].accesses, ref_freqs[i].accesses);
      EXPECT_EQ(freqs[i].per_sec, ref_freqs[i].per_sec);
    }
  }

  const auto distinct = reference::distinct_sectors(ts);
  for (const double coverage : {0.5, 0.8, 0.9, 1.0}) {
    EXPECT_EQ(disk_fraction_for_coverage(c, coverage),
              reference::disk_fraction_for_coverage(ts, coverage, 1'018'080));
    EXPECT_EQ(disk_fraction_for_coverage(c, coverage,
                                         c.hot().distinct_tracked()),
              reference::disk_fraction_for_coverage(ts, coverage, distinct));
  }

  const auto s = summarize(ts);
  EXPECT_EQ(s.experiment, ts.experiment());
  EXPECT_EQ(s.mix.reads, mix.reads);
  EXPECT_EQ(s.mix.writes, mix.writes);
  EXPECT_EQ(s.mix.total, mix.total);
  EXPECT_EQ(s.mix.read_pct, mix.read_pct);
  EXPECT_EQ(s.mix.write_pct, mix.write_pct);
  EXPECT_EQ(s.mix.requests_per_sec, mix.requests_per_sec);
  EXPECT_EQ(s.pct_1k, 100.0 * reference::size_class_fraction(ts, 1024));
  EXPECT_EQ(s.pct_2k, 100.0 * reference::size_class_fraction(ts, 2048));
  EXPECT_EQ(s.pct_4k, 100.0 * reference::size_class_fraction(ts, 4096));
  EXPECT_EQ(s.pct_ge_8k,
            100.0 * reference::size_at_least_fraction(ts, 8 * 1024));
  EXPECT_EQ(s.pct_ge_16k,
            100.0 * reference::size_at_least_fraction(ts, 16 * 1024));
  EXPECT_EQ(s.max_request_bytes, reference::max_request_bytes(ts));
  EXPECT_EQ(s.duration_sec, to_seconds(ts.duration()));

  for (const SimTime window : {sec(10), sec(25)}) {
    telemetry::WindowRateConsumer rates(window);
    rates.on_records(ts.records().data(), ts.size());
    rates.on_finish(ts.duration());
    EXPECT_EQ(rates.series(), reference::rate_over_time(ts, window));
  }
}

// A time-ordered trace: a few hot sectors over a uniform tail, the paper's
// size classes plus odd sizes, a random R/W mix; the duration is either
// declared past the last record or left to fall back to it.
trace::TraceSet random_trace(std::uint64_t seed) {
  Rng rng(seed);
  trace::TraceSet ts("random_" + std::to_string(seed), 0);
  const auto n = rng.uniform(4000);
  const std::uint32_t hot[] = {45'000, 99'184, 1'000'000};
  SimTime t = 0;
  for (std::uint64_t i = 0; i < n; ++i) {
    t += rng.uniform(3) == 0 ? 0 : rng.uniform(2'000'000);
    const auto roll = rng.uniform(100);
    const std::uint32_t sector =
        roll < 30 ? hot[roll % 3]
                  : static_cast<std::uint32_t>(rng.uniform(1'018'080));
    const std::uint32_t size = roll % 7 == 0
                                   ? 3072
                                   : 1024u << rng.uniform(6);
    ts.add(rec(t, sector, size, rng.chance(0.6)));
  }
  if (rng.chance(0.5)) ts.set_duration(t + rng.uniform(sec(30)) + 1);
  return ts;
}

TEST(Characterize, MatchesReferenceOnRandomTraces) {
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    expect_matches_reference(random_trace(seed));
  }
}

TEST(Characterize, MatchesReferenceOnEdgeTraces) {
  expect_matches_reference(trace::TraceSet("empty", 0));

  // Every record at t = 0 and no declared duration: a zero-length capture.
  trace::TraceSet zero("zero_duration", 0);
  zero.add(rec(0, 7, 1024, true));
  zero.add(rec(0, 7, 4096, false));
  zero.add(rec(0, 300'000, 2048, true));
  ASSERT_EQ(zero.duration(), 0u);
  expect_matches_reference(zero);

  trace::TraceSet single("single_sector", 0);
  for (int i = 0; i < 50; ++i) {
    single.add(rec(sec(static_cast<std::uint64_t>(i)), 45'000, 1024,
                   i % 3 != 0));
  }
  expect_matches_reference(single);

  expect_matches_reference(sample());
  expect_matches_reference(skewed());
  expect_matches_reference(two_windows());
}

TEST(Characterize, HotCountsStayExactPastTheDefaultTopKCapacity) {
  // More distinct sectors than StreamSummary's default 65 536 top-K
  // counters: a fold at the default capacity would evict and overcount.
  constexpr std::uint32_t kDistinct = 70'000;
  ASSERT_GT(kDistinct, telemetry::StreamSummary::Options{}.topk_capacity);
  trace::TraceSet ts("many_sectors", 0);
  for (std::uint32_t i = 0; i < kDistinct; ++i) {
    ts.add(rec(i * 100, i * 13, 1024, i % 2 == 0));
    if (i % 1000 == 0) ts.add(rec(i * 100 + 1, 13, 1024, true));
  }
  const auto c = characterize(ts);
  EXPECT_TRUE(c.hot().exact());
  EXPECT_EQ(c.hot().distinct_tracked(), kDistinct);
  expect_matches_reference(ts);
}

}  // namespace
}  // namespace ess::analysis
