// The mergeability contract: for every consumer, merge(A, B) over a split
// record stream equals one pass over the concatenation — exactly for the
// counting consumers, with honored error bounds for the top-K sketch once
// its capacity is exceeded. The chunk-parallel scan engine is built on
// these properties, so they are tested directly, over many random splits.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <vector>

#include "telemetry/consumers.hpp"
#include "util/rng.hpp"

namespace ess::telemetry {
namespace {

std::vector<trace::Record> mixed_records(std::size_t n, std::uint64_t seed) {
  std::vector<trace::Record> recs;
  recs.reserve(n);
  Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    trace::Record r;
    r.timestamp = static_cast<SimTime>(i) * 300'000 +
                  static_cast<SimTime>(rng.uniform(1000));
    const auto roll = static_cast<std::uint32_t>(rng.uniform(100));
    if (roll < 35) {
      r.sector = 45'000;
    } else if (roll < 60) {
      r.sector = 99'184;
    } else {
      // A modest distinct population so small-capacity sketches overflow.
      r.sector = static_cast<std::uint32_t>(rng.uniform(64)) * 1000;
    }
    r.size_bytes = 1024u << rng.uniform(4);
    r.is_write = static_cast<std::uint8_t>(roll % 5 != 0);
    r.node = static_cast<std::int32_t>(i % 3 + 1);
    recs.push_back(r);
  }
  return recs;
}

/// Split points exercising the edges (empty sides) plus random interior
/// cuts — the shard boundaries the parallel scan produces are arbitrary.
std::vector<std::size_t> split_points(std::size_t n, std::uint64_t seed) {
  std::vector<std::size_t> cuts{0, 1, n / 3, n / 2, n - 1, n};
  Rng rng(seed);
  for (int i = 0; i < 10; ++i) {
    cuts.push_back(static_cast<std::size_t>(rng.uniform(n + 1)));
  }
  return cuts;
}

constexpr SimTime kDuration = sec(700);

template <typename Consumer>
void feed(Consumer& c, const std::vector<trace::Record>& recs,
          std::size_t lo, std::size_t hi) {
  for (std::size_t i = lo; i < hi; ++i) c.on_record(recs[i]);
}

/// merge(A over [0,cut), B over [cut,n)) followed by on_finish, against a
/// single finished pass; `check(merged, whole)` asserts equivalence.
template <typename Consumer, typename Check>
void property_over_splits(const Check& check) {
  const auto recs = mixed_records(2000, 7);
  Consumer whole;
  feed(whole, recs, 0, recs.size());
  whole.on_finish(kDuration);
  for (const std::size_t cut : split_points(recs.size(), 99)) {
    Consumer a;
    Consumer b;
    feed(a, recs, 0, cut);
    feed(b, recs, cut, recs.size());
    a.merge(b);
    a.on_finish(kDuration);
    check(a, whole);
  }
}

TEST(ConsumerMerge, SizeHistogramExact) {
  property_over_splits<SizeHistogramConsumer>(
      [](const SizeHistogramConsumer& m, const SizeHistogramConsumer& w) {
        EXPECT_EQ(m.histogram().cells(), w.histogram().cells());
        EXPECT_EQ(m.histogram().total(), w.histogram().total());
        EXPECT_EQ(m.max_request_bytes(), w.max_request_bytes());
      });
}

TEST(ConsumerMerge, RwMixExact) {
  property_over_splits<RwMixConsumer>(
      [](const RwMixConsumer& m, const RwMixConsumer& w) {
        EXPECT_EQ(m.reads(), w.reads());
        EXPECT_EQ(m.writes(), w.writes());
        EXPECT_DOUBLE_EQ(m.read_pct(), w.read_pct());
        EXPECT_DOUBLE_EQ(m.requests_per_sec(), w.requests_per_sec());
      });
}

TEST(ConsumerMerge, SlidingRateExactForTimeOrderedSplits) {
  property_over_splits<SlidingRateConsumer>(
      [](const SlidingRateConsumer& m, const SlidingRateConsumer& w) {
        EXPECT_DOUBLE_EQ(m.rate(), w.rate());
      });
}

TEST(ConsumerMerge, WindowRateExact) {
  property_over_splits<WindowRateConsumer>(
      [](const WindowRateConsumer& m, const WindowRateConsumer& w) {
        EXPECT_EQ(m.series(), w.series());
      });
}

TEST(ConsumerMerge, SpatialBandsExact) {
  property_over_splits<SpatialBandsConsumer>(
      [](const SpatialBandsConsumer& m, const SpatialBandsConsumer& w) {
        const auto mb = m.bands();
        const auto wb = w.bands();
        ASSERT_EQ(mb.size(), wb.size());
        for (std::size_t i = 0; i < mb.size(); ++i) {
          EXPECT_EQ(mb[i].band_start_sector, wb[i].band_start_sector);
          EXPECT_EQ(mb[i].requests, wb[i].requests);
          EXPECT_DOUBLE_EQ(mb[i].pct, wb[i].pct);
        }
      });
}

TEST(ConsumerMerge, PerNodeExact) {
  property_over_splits<PerNodeConsumer>(
      [](const PerNodeConsumer& m, const PerNodeConsumer& w) {
        ASSERT_EQ(m.distinct_nodes(), w.distinct_nodes());
        const auto merged = m.nodes();  // a view built per call
        for (const auto& [node, c] : w.nodes()) {
          const auto it = merged.find(node);
          ASSERT_NE(it, merged.end());
          EXPECT_EQ(it->second.reads, c.reads);
          EXPECT_EQ(it->second.writes, c.writes);
        }
      });
}

TEST(ConsumerMerge, TopKExactWhileUnionFitsCapacity) {
  const auto recs = mixed_records(2000, 7);
  TopKSectorsConsumer whole(4096);
  feed(whole, recs, 0, recs.size());
  whole.on_finish(kDuration);
  ASSERT_TRUE(whole.exact());
  for (const std::size_t cut : split_points(recs.size(), 99)) {
    TopKSectorsConsumer a(4096);
    TopKSectorsConsumer b(4096);
    feed(a, recs, 0, cut);
    feed(b, recs, cut, recs.size());
    a.merge(b);
    a.on_finish(kDuration);
    EXPECT_TRUE(a.exact());
    const auto mt = a.top(20);
    const auto wt = whole.top(20);
    ASSERT_EQ(mt.size(), wt.size());
    for (std::size_t i = 0; i < mt.size(); ++i) {
      EXPECT_EQ(mt[i].sector, wt[i].sector);
      EXPECT_EQ(mt[i].count, wt[i].count);
      EXPECT_EQ(mt[i].error, 0u);
      EXPECT_DOUBLE_EQ(mt[i].per_sec, wt[i].per_sec);
    }
  }
}

TEST(ConsumerMerge, TopKBoundsHoldPastCapacity) {
  const auto recs = mixed_records(4000, 11);
  std::map<std::uint64_t, std::uint64_t> truth;
  for (const auto& r : recs) ++truth[r.sector];

  for (const std::size_t cut : split_points(recs.size(), 5)) {
    TopKSectorsConsumer a(16);  // far below the ~66 distinct sectors
    TopKSectorsConsumer b(16);
    feed(a, recs, 0, cut);
    feed(b, recs, cut, recs.size());
    a.merge(b);
    EXPECT_LE(a.distinct_tracked(), a.capacity());
    // Every reported entry keeps count as an upper bound on the true
    // frequency and count - error as a lower bound.
    for (const auto& e : a.top(a.capacity())) {
      const auto it = truth.find(e.sector);
      const std::uint64_t actual = it == truth.end() ? 0 : it->second;
      EXPECT_GE(e.count, actual) << "sector " << e.sector;
      EXPECT_LE(e.count - e.error, actual) << "sector " << e.sector;
    }
    // The two genuinely hot sectors dominate everything else by far more
    // than any overcount, so they must survive a merge of spilled
    // sketches in order.
    const auto top2 = a.top(2);
    ASSERT_EQ(top2.size(), 2u);
    EXPECT_EQ(top2[0].sector, 45'000u);
    EXPECT_EQ(top2[1].sector, 99'184u);
    EXPECT_FALSE(a.exact());
  }
}

TEST(ConsumerMerge, StreamSummaryMatchesSinglePass) {
  const auto recs = mixed_records(3000, 21);
  StreamSummary whole;
  for (const auto& r : recs) whole.on_record(r);
  whole.on_drops(17);
  whole.on_finish(kDuration);
  const auto want = whole.result("x");

  for (const std::size_t cut : split_points(recs.size(), 33)) {
    StreamSummary a;
    StreamSummary b;
    for (std::size_t i = 0; i < cut; ++i) a.on_record(recs[i]);
    for (std::size_t i = cut; i < recs.size(); ++i) b.on_record(recs[i]);
    a.merge(b);
    a.on_drops(17);
    a.on_finish(kDuration);
    const auto got = a.result("x");

    EXPECT_EQ(got.records, want.records);
    EXPECT_DOUBLE_EQ(got.duration_sec, want.duration_sec);
    EXPECT_EQ(got.reads, want.reads);
    EXPECT_EQ(got.writes, want.writes);
    EXPECT_DOUBLE_EQ(got.read_pct, want.read_pct);
    EXPECT_DOUBLE_EQ(got.requests_per_sec, want.requests_per_sec);
    EXPECT_EQ(got.max_request_bytes, want.max_request_bytes);
    EXPECT_EQ(got.size_pct, want.size_pct);
    EXPECT_EQ(got.band_pct, want.band_pct);
    ASSERT_EQ(got.hot.size(), want.hot.size());
    for (std::size_t i = 0; i < got.hot.size(); ++i) {
      EXPECT_EQ(got.hot[i].sector, want.hot[i].sector);
      EXPECT_EQ(got.hot[i].count, want.hot[i].count);
    }
    EXPECT_EQ(got.hot_exact, want.hot_exact);
    EXPECT_EQ(got.dropped_records, want.dropped_records);
    ASSERT_EQ(got.per_node.size(), want.per_node.size());
    for (std::size_t i = 0; i < got.per_node.size(); ++i) {
      EXPECT_EQ(got.per_node[i].node, want.per_node[i].node);
      EXPECT_EQ(got.per_node[i].records, want.per_node[i].records);
      EXPECT_EQ(got.per_node[i].reads, want.per_node[i].reads);
    }
  }
}

}  // namespace
}  // namespace ess::telemetry
