#include "block/buffer_cache.hpp"

#include <gtest/gtest.h>

namespace ess::block {
namespace {

class BufferCacheTest : public ::testing::Test {
 protected:
  BufferCacheTest() : drive_(engine_, model()), drv_(drive_, &ring_) {}

  static disk::ServiceModel model() {
    return disk::ServiceModel(disk::beowulf_geometry(),
                              disk::ServiceParams{});
  }

  BufferCache make(CacheConfig cfg = {}) { return BufferCache(drv_, cfg); }

  /// Drains the trace ring: (size_bytes, is_write) pairs of all physical
  /// requests since the last call.
  std::vector<std::pair<std::uint32_t, bool>> physical() {
    engine_.run();
    std::vector<std::pair<std::uint32_t, bool>> out;
    for (const auto& r : ring_.drain(100000)) {
      out.emplace_back(r.size_bytes, r.is_write != 0);
    }
    return out;
  }

  sim::Engine engine_;
  disk::Drive drive_;
  trace::RingBuffer ring_{100000};
  driver::IdeDriver drv_;
};

TEST_F(BufferCacheTest, MissReadsFromDiskThenHits) {
  auto cache = make();
  bool done = false;
  EXPECT_TRUE(cache.fetch(100, 1, [&] { done = true; }));
  EXPECT_FALSE(done);  // miss: waits for the disk
  engine_.run();
  EXPECT_TRUE(done);
  const auto reqs = physical();
  ASSERT_EQ(reqs.size(), 1u);
  EXPECT_EQ(reqs[0], (std::pair<std::uint32_t, bool>{1024, false}));

  bool hit = false;
  EXPECT_FALSE(cache.fetch(100, 1, [&] { hit = true; }));
  EXPECT_FALSE(hit);  // a hit does not wait, and `done` is dropped
  EXPECT_TRUE(physical().empty());
  EXPECT_EQ(cache.stats().read_hits, 1u);
  EXPECT_EQ(cache.stats().read_misses, 1u);
}

TEST_F(BufferCacheTest, AdjacentMissesCoalesceToOneRequest) {
  auto cache = make();
  EXPECT_TRUE(cache.fetch(500, 8, [] {}));
  const auto reqs = physical();
  ASSERT_EQ(reqs.size(), 1u);
  EXPECT_EQ(reqs[0].first, 8u * 1024);
}

TEST_F(BufferCacheTest, CoalescingCappedAtConfiguredCeiling) {
  CacheConfig cfg;
  cfg.max_coalesce_blocks = 16;
  auto cache = make(cfg);
  EXPECT_TRUE(cache.fetch(0, 40, [] {}));
  const auto reqs = physical();
  ASSERT_EQ(reqs.size(), 3u);  // 16 + 16 + 8
  EXPECT_EQ(reqs[0].first, 16u * 1024);
  EXPECT_EQ(reqs[1].first, 16u * 1024);
  EXPECT_EQ(reqs[2].first, 8u * 1024);
}

TEST_F(BufferCacheTest, CachedHoleSplitsTheRead) {
  auto cache = make();
  cache.fetch(202, 1, [] {});  // pre-cache the middle block
  physical();
  EXPECT_TRUE(cache.fetch(200, 5, [] {}));
  const auto reqs = physical();
  ASSERT_EQ(reqs.size(), 2u);  // [200,201] and [203,204]
  EXPECT_EQ(reqs[0].first, 2u * 1024);
  EXPECT_EQ(reqs[1].first, 2u * 1024);
}

TEST_F(BufferCacheTest, WriteIsWriteBehind) {
  auto cache = make();
  cache.write_range(300, 4);
  EXPECT_EQ(cache.dirty_blocks(), 4u);
  EXPECT_TRUE(physical().empty());  // nothing reaches the disk yet
  cache.sync();
  const auto reqs = physical();
  ASSERT_EQ(reqs.size(), 1u);
  EXPECT_EQ(reqs[0], (std::pair<std::uint32_t, bool>{4096, true}));
  EXPECT_EQ(cache.dirty_blocks(), 0u);
}

TEST_F(BufferCacheTest, SyncCoalescesAdjacentDirtyOnly) {
  auto cache = make();
  cache.write_range(10, 2);
  cache.write_range(50, 1);
  cache.sync();
  const auto reqs = physical();
  ASSERT_EQ(reqs.size(), 2u);
  EXPECT_EQ(reqs[0].first, 2u * 1024);
  EXPECT_EQ(reqs[1].first, 1u * 1024);
}

TEST_F(BufferCacheTest, BdflushHonorsDataAge) {
  CacheConfig cfg;
  cfg.dirty_age_limit = sec(30);
  auto cache = make(cfg);
  cache.write_range(1, 1);
  engine_.run_until(sec(10));
  EXPECT_EQ(cache.bdflush_pass(), 0u);  // too young
  engine_.run_until(sec(31));
  EXPECT_EQ(cache.bdflush_pass(), 1u);
  physical();
}

TEST_F(BufferCacheTest, MetadataAgesFaster) {
  CacheConfig cfg;
  cfg.dirty_age_limit = sec(30);
  cfg.metadata_age_limit = sec(5);
  auto cache = make(cfg);
  cache.write_range(1, 1, /*metadata=*/true);
  cache.write_range(100, 1, /*metadata=*/false);
  engine_.run_until(sec(6));
  EXPECT_EQ(cache.bdflush_pass(), 1u);  // only the metadata block
  engine_.run_until(sec(31));
  EXPECT_EQ(cache.bdflush_pass(), 1u);  // now the data block
}

TEST_F(BufferCacheTest, DirtyRatioForcesEarlyFlush) {
  CacheConfig cfg;
  cfg.capacity_blocks = 100;
  cfg.dirty_ratio_limit = 0.2;
  auto cache = make(cfg);
  cache.write_range(0, 30);  // 30% dirty > 20% limit
  const auto reqs = physical();
  EXPECT_FALSE(reqs.empty());
  EXPECT_LT(cache.dirty_blocks(), 30u);
}

TEST_F(BufferCacheTest, EvictionFlushesDirtyVictims) {
  CacheConfig cfg;
  cfg.capacity_blocks = 8;
  cfg.dirty_ratio_limit = 0.9;  // keep the ratio trigger out of the way
  auto cache = make(cfg);
  cache.write_range(0, 2);  // two dirty blocks, under the ratio
  physical();
  cache.fetch(1000, 7, [] {});  // forces eviction of a dirty victim
  engine_.run();
  EXPECT_GT(cache.stats().forced_evict_flushes, 0u);
  EXPECT_LE(cache.resident_blocks(), 8u);
}

TEST_F(BufferCacheTest, WriteThroughGoesStraightToDisk) {
  auto cache = make();
  bool done = false;
  cache.write_through(77, 3, [&] { done = true; });
  engine_.run();
  EXPECT_TRUE(done);
  const auto reqs = physical();
  ASSERT_EQ(reqs.size(), 1u);
  EXPECT_EQ(reqs[0], (std::pair<std::uint32_t, bool>{3072, true}));
  EXPECT_EQ(cache.dirty_blocks(), 0u);
}

TEST_F(BufferCacheTest, InvalidateDropsBlock) {
  auto cache = make();
  cache.write_range(5, 1);
  cache.invalidate(5);
  EXPECT_FALSE(cache.resident(5));
  EXPECT_EQ(cache.dirty_blocks(), 0u);
  cache.sync();
  EXPECT_TRUE(physical().empty());
}

TEST_F(BufferCacheTest, ConcurrentReadersOfInFlightBlockAllComplete) {
  auto cache = make();
  int done = 0;
  EXPECT_TRUE(cache.fetch(400, 1, [&] { ++done; }));
  // A waiter on the in-flight block waits too.
  EXPECT_TRUE(cache.fetch(400, 1, [&] { ++done; }));
  EXPECT_EQ(done, 0);
  engine_.run();
  EXPECT_EQ(done, 2);
  // Only one physical request was issued.
  EXPECT_EQ(physical().size(), 1u);
}

TEST_F(BufferCacheTest, LruEvictsColdestClean) {
  CacheConfig cfg;
  cfg.capacity_blocks = 4;
  auto cache = make(cfg);
  for (BlockNo b = 1; b <= 4; ++b) cache.fetch(b, 1, [] {});
  engine_.run();
  physical();
  cache.fetch(1, 1, [] {});  // touch 1: now 2 is the coldest
  cache.fetch(99, 1, [] {});
  engine_.run();
  EXPECT_TRUE(cache.resident(1));
  EXPECT_FALSE(cache.resident(2));
}

/// One multi-range fetch against the same ranges fetched one by one, each
/// on a fresh cache that starts with a resident hole, a dirty block and an
/// in-flight read: returns every physical request in issue order and how
/// many times the completions fired.
struct FetchRun {
  std::vector<trace::Record> requests;
  bool waits = false;  // the multi-range form's return value
  int fired = 0;
};

FetchRun fetch_ranges(const std::vector<BufferCache::Range>& ranges,
                      bool one_by_one) {
  sim::Engine engine;
  disk::Drive drive(engine, disk::ServiceModel(disk::beowulf_geometry(),
                                               disk::ServiceParams{}));
  trace::RingBuffer ring(100000);
  driver::IdeDriver drv(drive, &ring);
  CacheConfig cfg;
  cfg.capacity_blocks = 48;  // small enough that the fetches evict
  cfg.max_coalesce_blocks = 8;
  cfg.dirty_ratio_limit = 0.9;
  BufferCache cache(drv, cfg);
  cache.fetch(105, 2, [] {});
  engine.run();
  cache.write_range(20, 3);
  cache.fetch(300, 4, [] {});  // still in flight below
  ring.drain(100000);

  FetchRun out;
  if (one_by_one) {
    for (const auto& r : ranges) {
      out.waits |= cache.fetch(r.first, r.count, [&] { ++out.fired; });
    }
  } else {
    out.waits = cache.fetch(ranges, [&] { ++out.fired; });
  }
  engine.run();
  out.requests = ring.drain(100000);
  return out;
}

TEST(BufferCacheFetch, MultiRangeIssuesTheRequestsOfOneByOneReads) {
  // A hole at 105-106, a run past the coalescing cap, a range overlapping
  // an earlier one (its blocks are then in flight), the in-flight read,
  // and enough blocks to evict the dirty victim.
  const std::vector<BufferCache::Range> ranges = {
      {100, 12}, {200, 20}, {210, 4}, {301, 2}, {400, 30}};
  const FetchRun multi = fetch_ranges(ranges, /*one_by_one=*/false);
  const FetchRun single = fetch_ranges(ranges, /*one_by_one=*/true);
  EXPECT_TRUE(multi.waits);
  EXPECT_EQ(multi.fired, 1);  // one countdown over every range
  EXPECT_EQ(single.fired, static_cast<int>(ranges.size()));
  ASSERT_EQ(multi.requests.size(), single.requests.size());
  ASSERT_GT(multi.requests.size(), ranges.size());
  bool saw_write = false;
  for (std::size_t i = 0; i < multi.requests.size(); ++i) {
    EXPECT_TRUE(multi.requests[i] == single.requests[i]) << "request " << i;
    saw_write |= multi.requests[i].is_write != 0;
  }
  EXPECT_TRUE(saw_write);  // the dirty victim's forced flush
}

TEST(BufferCacheFetch, ResidentRangesReturnFalseWithoutCallingDone) {
  const FetchRun warm = fetch_ranges({{105, 2}, {105, 1}}, false);
  EXPECT_FALSE(warm.waits);
  EXPECT_EQ(warm.fired, 0);
  EXPECT_TRUE(warm.requests.empty());
  const FetchRun none = fetch_ranges({}, false);
  EXPECT_FALSE(none.waits);
  EXPECT_EQ(none.fired, 0);
}

class CoalesceSweep : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(CoalesceSweep, MaxPhysicalRequestNeverExceedsCeiling) {
  const std::uint32_t ceiling = GetParam();
  sim::Engine engine;
  disk::Drive drive(engine, disk::ServiceModel(disk::beowulf_geometry(),
                                               disk::ServiceParams{}));
  trace::RingBuffer ring(100000);
  driver::IdeDriver drv(drive, &ring);
  CacheConfig cfg;
  cfg.max_coalesce_blocks = ceiling;
  BufferCache cache(drv, cfg);
  cache.fetch(0, 200, [] {});
  cache.write_range(1000, 200);
  cache.sync();
  engine.run();
  for (const auto& r : ring.drain(100000)) {
    EXPECT_LE(r.size_bytes, ceiling * 1024u);
  }
}

INSTANTIATE_TEST_SUITE_P(Ceilings, CoalesceSweep,
                         ::testing::Values(1, 2, 4, 8, 16, 32, 64));

}  // namespace
}  // namespace ess::block
