// Property test: the buffer cache against a reference model.
//
// Invariants checked under randomized operation sequences:
//  * every read completes exactly once;
//  * the physical request stream never exceeds the coalescing ceiling and
//    never reads a block that a reference set says is resident-clean;
//  * dirty accounting matches a reference dirty-set after syncs;
//  * residency never exceeds capacity;
//  * every bdflush pass, sync, write-through and forced eviction flush
//    writes exactly the requests a full-scan reference of the write-back
//    rule predicts;
//  * after every operation, each block's residency, the resident count and
//    the pinned count are what a list-based LRU reference predicts.
#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <map>
#include <set>
#include <unordered_map>
#include <vector>

#include "block/buffer_cache.hpp"
#include "util/rng.hpp"

namespace ess::block {
namespace {

class CacheFuzzTest : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  CacheFuzzTest()
      : drive_(engine_, disk::ServiceModel(disk::beowulf_geometry(),
                                           disk::ServiceParams{})),
        drv_(drive_, &ring_) {}

  sim::Engine engine_;
  disk::Drive drive_;
  trace::RingBuffer ring_{1 << 20};
  driver::IdeDriver drv_;
};

TEST_P(CacheFuzzTest, InvariantsHoldUnderRandomOps) {
  CacheConfig cfg;
  cfg.capacity_blocks = 128;
  cfg.max_coalesce_blocks = 16;
  BufferCache cache(drv_, cfg);
  Rng rng(GetParam());

  int issued_reads = 0;
  int completed_reads = 0;
  std::set<BlockNo> reference_dirty;

  for (int op = 0; op < 600; ++op) {
    const auto roll = rng.uniform(100);
    const BlockNo first = rng.uniform(4096);
    const auto count = static_cast<std::uint32_t>(1 + rng.uniform(24));
    if (roll < 40) {
      ++issued_reads;
      if (!cache.fetch(first, count, [&] { ++completed_reads; })) {
        ++completed_reads;  // every block was resident
      }
    } else if (roll < 75) {
      cache.write_range(first, count, rng.chance(0.2));
      for (std::uint32_t i = 0; i < count; ++i) {
        reference_dirty.insert(first + i);
      }
    } else if (roll < 85) {
      cache.sync();
      reference_dirty.clear();
    } else if (roll < 95) {
      cache.bdflush_pass();
    } else {
      engine_.run();  // drain all outstanding I/O
    }
    // In-flight reads pin their blocks, so residency may transiently
    // exceed capacity by exactly the pinned count, never more.
    ASSERT_LE(cache.resident_blocks(),
              cfg.capacity_blocks + cache.pinned_blocks());
    // The cache's dirty count can only be <= the reference (flushes by
    // ratio/eviction may clean blocks early), never more.
    ASSERT_LE(cache.dirty_blocks(), reference_dirty.size());
  }
  engine_.run();
  EXPECT_EQ(completed_reads, issued_reads);

  // Every physical request obeys the ceiling.
  for (const auto& r : ring_.drain(1 << 20)) {
    ASSERT_LE(r.size_bytes, cfg.max_coalesce_blocks * 1024u);
  }

  // After a final sync + drain, nothing is dirty.
  cache.sync();
  engine_.run();
  EXPECT_EQ(cache.dirty_blocks(), 0u);
}

/// Physical write requests as (first block, length in blocks).
using Requests = std::vector<std::pair<BlockNo, std::uint32_t>>;

/// The write-back rule as a full scan, the oracle for the cache's deadline
/// index: a model of every dirty block's (dirty_since, metadata), sorted by
/// (flush deadline, block) on each pass.
class ReferenceWriteBack {
 public:
  explicit ReferenceWriteBack(const CacheConfig& cfg) : cfg_(cfg) {}

  /// Blocks a bdflush pass at `now` must write: the prefix of the sorted
  /// dirty list that is past its deadline or, over the dirty ratio, needed
  /// to bring the dirty count back down to half the ratio.
  std::vector<BlockNo> bdflush(SimTime now) const {
    std::vector<std::pair<SimTime, BlockNo>> aged;
    for (const auto& [b, d] : dirty_) {
      const SimTime limit =
          d.metadata ? cfg_.metadata_age_limit : cfg_.dirty_age_limit;
      aged.emplace_back(d.since + limit, b);
    }
    std::sort(aged.begin(), aged.end());
    const auto hi = static_cast<std::size_t>(
        cfg_.dirty_ratio_limit * static_cast<double>(cfg_.capacity_blocks));
    const std::size_t lo = hi / 2;
    const std::size_t must_drop = aged.size() > hi ? aged.size() - lo : 0;
    std::vector<BlockNo> out;
    for (std::size_t i = 0; i < aged.size(); ++i) {
      if (aged[i].first <= now || i < must_drop) out.push_back(aged[i].second);
    }
    return out;
  }

  std::vector<BlockNo> all_dirty() const {
    std::vector<BlockNo> out;
    for (const auto& [b, d] : dirty_) out.push_back(b);
    return out;
  }

  bool over_ratio() const {
    return static_cast<double>(dirty_.size()) >
           cfg_.dirty_ratio_limit * static_cast<double>(cfg_.capacity_blocks);
  }

  /// write_range: a clean block becomes dirty now; a dirty one keeps its
  /// dirty_since and takes the new class.
  void write(BlockNo first, std::uint32_t count, bool metadata, SimTime now) {
    for (std::uint32_t i = 0; i < count; ++i) {
      dirty_.try_emplace(first + i, Dirty{now, metadata})
          .first->second.metadata = metadata;
    }
  }

  void clean(const std::vector<BlockNo>& blocks) {
    for (const BlockNo b : blocks) dirty_.erase(b);
  }
  bool is_dirty(BlockNo b) const { return dirty_.count(b) != 0; }
  std::size_t dirty_count() const { return dirty_.size(); }

  /// A dirty block picked uniformly, or a random block when none is dirty.
  BlockNo pick(Rng& rng, BlockNo space) const {
    if (dirty_.empty()) return rng.uniform(space);
    return std::next(dirty_.begin(),
                     static_cast<std::ptrdiff_t>(rng.uniform(dirty_.size())))
        ->first;
  }

  /// The physical requests a flush of `blocks` issues: sorted, adjacent
  /// blocks coalesced up to the request ceiling, as (first block, length).
  Requests requests(std::vector<BlockNo> blocks) const {
    std::sort(blocks.begin(), blocks.end());
    Requests out;
    for (const BlockNo b : blocks) {
      if (!out.empty() && out.back().first + out.back().second == b &&
          out.back().second < cfg_.max_coalesce_blocks) {
        ++out.back().second;
      } else {
        out.emplace_back(b, 1);
      }
    }
    return out;
  }

 private:
  struct Dirty {
    SimTime since;
    bool metadata;
  };
  CacheConfig cfg_;
  std::map<BlockNo, Dirty> dirty_;
};

TEST_P(CacheFuzzTest, WriteBackMatchesFullScanReference) {
  CacheConfig cfg;
  cfg.capacity_blocks = 128;
  cfg.max_coalesce_blocks = 16;
  BufferCache cache(drv_, cfg);
  ReferenceWriteBack ref(cfg);
  Rng rng(GetParam());
  constexpr BlockNo kSpace = 1024;
  // In-flight reads pin blocks. Capping them keeps at least one older,
  // unpinned block behind every block a write_range call touches, so an
  // eviction inside that call never takes a block the call already wrote.
  constexpr std::size_t kMaxPinned = 48;

  // Write requests issued since the last call, in issue order.
  auto drain_writes = [&] {
    Requests out;
    for (const auto& r : ring_.drain(1 << 20)) {
      if (r.is_write == 0) continue;
      out.emplace_back(r.sector / kSectorsPerBlock, r.size_bytes / kBlockSize);
    }
    return out;
  };
  std::uint64_t forced_seen = 0;
  // Splits off the eviction-forced flushes (one block each, issued before
  // anything else an operation writes) and cleans them in the reference.
  auto take_forced = [&](const Requests& writes) {
    const std::uint64_t forced =
        cache.stats().forced_evict_flushes - forced_seen;
    forced_seen = cache.stats().forced_evict_flushes;
    EXPECT_LE(forced, writes.size());
    const auto n = static_cast<std::ptrdiff_t>(
        std::min<std::uint64_t>(forced, writes.size()));
    std::vector<BlockNo> victims;
    for (auto w = writes.begin(); w != writes.begin() + n; ++w) {
      EXPECT_EQ(w->second, 1u);
      EXPECT_TRUE(ref.is_dirty(w->first)) << w->first;
      victims.push_back(w->first);
    }
    ref.clean(victims);
    return Requests(writes.begin() + n, writes.end());
  };

  std::size_t passes_with_flushes = 0;
  for (int op = 0; op < 1500; ++op) {
    const SimTime now = engine_.now();
    const auto roll = rng.uniform(100);
    const auto count = static_cast<std::uint32_t>(1 + rng.uniform(24));
    if (roll < 15 && cache.pinned_blocks() <= kMaxPinned) {
      cache.fetch(rng.uniform(kSpace), count, [] {});
      EXPECT_TRUE(take_forced(drain_writes()).empty());
    } else if (roll < 50) {
      // Half the writes start on a dirty block, so many of them flip its
      // class while its dirty_since stays.
      const BlockNo first =
          rng.chance(0.5) ? ref.pick(rng, kSpace) : rng.uniform(kSpace);
      const bool metadata = rng.chance(0.4);
      cache.write_range(first, count, metadata);
      const Requests rest = take_forced(drain_writes());
      ref.write(first, count, metadata, now);
      // Over the dirty ratio, write_range runs a bdflush pass itself.
      Requests want;
      if (ref.over_ratio()) {
        const auto flushed = ref.bdflush(now);
        want = ref.requests(flushed);
        ref.clean(flushed);
      }
      ASSERT_EQ(rest, want) << "op " << op << " write_range";
    } else if (roll < 58) {
      const BlockNo first = ref.pick(rng, kSpace);
      cache.write_through(first, count);
      const Requests rest = take_forced(drain_writes());
      Requests want;
      for (std::uint32_t done = 0; done < count;) {
        const std::uint32_t n =
            std::min(count - done, cfg.max_coalesce_blocks);
        want.emplace_back(first + done, n);
        done += n;
      }
      std::vector<BlockNo> range;
      for (std::uint32_t i = 0; i < count; ++i) range.push_back(first + i);
      ref.clean(range);
      ASSERT_EQ(rest, want) << "op " << op << " write_through";
    } else if (roll < 64) {
      const BlockNo b = ref.pick(rng, kSpace);
      cache.invalidate(b);
      // A block pinned by an in-flight read stays, dirty or not.
      if (!cache.resident(b)) ref.clean({b});
      EXPECT_TRUE(drain_writes().empty());
    } else if (roll < 68) {
      cache.sync();
      const Requests want = ref.requests(ref.all_dirty());
      ref.clean(ref.all_dirty());
      ASSERT_EQ(take_forced(drain_writes()), want) << "op " << op << " sync";
    } else if (roll < 82) {
      const auto flushed = ref.bdflush(now);
      EXPECT_EQ(cache.bdflush_pass(), flushed.size());
      passes_with_flushes += flushed.empty() ? 0 : 1;
      ASSERT_EQ(take_forced(drain_writes()), ref.requests(flushed))
          << "op " << op << " bdflush_pass";
      ref.clean(flushed);
    } else {
      // Time passes; completed reads unpin and may force evictions.
      if (rng.chance(0.1)) {
        engine_.run();
      } else {
        engine_.advance(static_cast<SimTime>(
            rng.uniform(static_cast<std::uint64_t>(sec(8)))));
      }
      EXPECT_TRUE(take_forced(drain_writes()).empty());
    }
    ASSERT_EQ(cache.dirty_blocks(), ref.dirty_count()) << "op " << op;
  }
  EXPECT_GT(cache.stats().forced_evict_flushes, 0u);
  EXPECT_GT(passes_with_flushes, 0u);
}

/// Residency as the replacement rule defines it, the oracle for the cache's
/// eviction victims: an LRU list (front = most recent), the blocks pinned
/// by in-flight reads, and an eviction scan from the tail that skips pinned
/// blocks and stops once residency is below capacity.
class ReferenceResidency {
 public:
  explicit ReferenceResidency(std::size_t capacity) : capacity_(capacity) {}

  bool resident(BlockNo b) const { return pos_.count(b) != 0; }
  std::size_t resident_blocks() const { return lru_.size(); }
  std::size_t pinned_blocks() const { return pinned_.size(); }

  /// fetch: resident blocks not in flight are hits and move to the
  /// front; the missing ones are then inserted in ascending order, pinned.
  void read(BlockNo first, std::uint32_t count) {
    std::vector<BlockNo> missing;
    for (std::uint32_t i = 0; i < count; ++i) {
      const BlockNo b = first + i;
      if (!resident(b)) {
        missing.push_back(b);
      } else if (pinned_.count(b) == 0) {
        touch(b);
      }
    }
    for (const BlockNo b : missing) {
      insert(b);
      pinned_.insert(b);
    }
  }

  /// write_range and write_through: every block moves to (or enters at)
  /// the front, in flight or not.
  void write(BlockNo first, std::uint32_t count) {
    for (std::uint32_t i = 0; i < count; ++i) {
      const BlockNo b = first + i;
      if (resident(b)) {
        touch(b);
      } else {
        insert(b);
      }
    }
  }

  /// A physical read of [first, first + count) completed: its blocks
  /// unpin, then the cache reclaims down to capacity.
  void complete(BlockNo first, std::uint32_t count) {
    for (std::uint32_t i = 0; i < count; ++i) pinned_.erase(first + i);
    evict();
  }

  /// invalidate: a block in flight stays.
  void invalidate(BlockNo b) {
    const auto it = pos_.find(b);
    if (it == pos_.end() || pinned_.count(b) != 0) return;
    lru_.erase(it->second);
    pos_.erase(it);
  }

 private:
  void touch(BlockNo b) {
    lru_.erase(pos_.at(b));
    lru_.push_front(b);
    pos_[b] = lru_.begin();
  }

  void insert(BlockNo b) {
    evict();
    lru_.push_front(b);
    pos_[b] = lru_.begin();
  }

  void evict() {
    while (lru_.size() >= capacity_) {
      auto victim = lru_.end();
      for (auto it = lru_.end(); it != lru_.begin();) {
        --it;
        if (pinned_.count(*it) == 0) {
          victim = it;
          break;
        }
      }
      if (victim == lru_.end()) return;  // everything pinned
      pos_.erase(*victim);
      lru_.erase(victim);
    }
  }

  std::size_t capacity_;
  std::list<BlockNo> lru_;
  std::unordered_map<BlockNo, std::list<BlockNo>::iterator> pos_;
  std::set<BlockNo> pinned_;
};

/// Feeds read completions to the residency reference. At kVerbose the
/// driver emits a record for each completed request just before it runs
/// the request's callback, so a read record seen while the engine runs is
/// the cache's read completing, and the reference steps with the cache.
class ReadCompletionTap final : public telemetry::Sink {
 public:
  explicit ReadCompletionTap(ReferenceResidency& ref) : ref_(ref) {}
  void on_record(const trace::Record& r) override {
    if (!engine_running || r.is_write != 0) return;
    ref_.complete(r.sector / kSectorsPerBlock, r.size_bytes / kBlockSize);
  }
  bool engine_running = false;

 private:
  ReferenceResidency& ref_;
};

TEST_P(CacheFuzzTest, ResidencyMatchesLruModel) {
  CacheConfig cfg;
  cfg.capacity_blocks = 64;
  cfg.max_coalesce_blocks = 16;
  driver::IdeDriver drv(drive_, nullptr);
  BufferCache cache(drv, cfg);
  ReferenceResidency ref(cfg.capacity_blocks);
  ReadCompletionTap tap(ref);
  drv.set_sink(&tap);
  drv.ioctl_set_trace_level(driver::TraceLevel::kVerbose);
  Rng rng(GetParam());
  constexpr BlockNo kSpace = 512;

  auto run_engine = [&](auto&& run) {
    tap.engine_running = true;
    run();
    tap.engine_running = false;
  };
  std::uint64_t completed = 0;
  for (int op = 0; op < 1500; ++op) {
    const auto roll = rng.uniform(100);
    const BlockNo first = rng.uniform(kSpace);
    const auto count = static_cast<std::uint32_t>(1 + rng.uniform(24));
    if (roll < 35) {
      if (!cache.fetch(first, count, [&] { ++completed; })) ++completed;
      ref.read(first, count);
    } else if (roll < 60) {
      cache.write_range(first, count, rng.chance(0.3));
      ref.write(first, count);
    } else if (roll < 66) {
      cache.write_through(first, count);
      ref.write(first, count);
    } else if (roll < 74) {
      cache.invalidate(first);
      ref.invalidate(first);
    } else if (roll < 78) {
      cache.sync();
    } else if (roll < 84) {
      cache.bdflush_pass();
    } else if (roll < 92) {
      run_engine([&] {
        engine_.advance(static_cast<SimTime>(
            rng.uniform(static_cast<std::uint64_t>(msec(40)))));
      });
    } else {
      run_engine([&] { engine_.run(); });
    }
    for (BlockNo b = 0; b < kSpace + 24; ++b) {
      ASSERT_EQ(cache.resident(b), ref.resident(b))
          << "op " << op << " block " << b;
    }
    ASSERT_EQ(cache.resident_blocks(), ref.resident_blocks()) << "op " << op;
    ASSERT_EQ(cache.pinned_blocks(), ref.pinned_blocks()) << "op " << op;
  }
  run_engine([&] { engine_.run(); });
  EXPECT_EQ(cache.pinned_blocks(), 0u);
  EXPECT_EQ(cache.resident_blocks(), ref.resident_blocks());
  EXPECT_GT(completed, 0u);
  EXPECT_GT(cache.stats().forced_evict_flushes, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CacheFuzzTest,
                         ::testing::Values(11, 22, 33, 44, 55, 66, 77, 88));

}  // namespace
}  // namespace ess::block
