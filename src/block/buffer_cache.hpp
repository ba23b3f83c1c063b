// The 1 KB buffer cache (Linux 1.x style) with write-behind and request
// coalescing.
//
// This layer is where the paper's request-size classes come from:
//  * a single cached block miss or metadata write  -> 1 KB physical request
//  * adjacent dirty blocks flushed together        -> 2 KB, 3 KB, ...
//  * sequential read-ahead windows                 -> up to the 16 KB cache
//    ceiling (32 KB under the combined load's enlarged I/O buffering)
//
// Data layout (no per-operation allocation once warm): the buffers live in
// a slab threaded by an intrusive LRU list of slot links, a FlatMap indexes
// the slab by block number, and each read waiting for I/O holds one slot of
// a second slab that owns its completion and counts down its runs.
#pragma once

#include <cstdint>
#include <set>
#include <span>
#include <vector>

#include "driver/ide_driver.hpp"
#include "util/flat_map.hpp"
#include "util/sim_time.hpp"
#include "util/small_function.hpp"

namespace ess::block {

/// Device block number; blocks are 1 KB = 2 sectors.
using BlockNo = std::uint64_t;

inline constexpr std::uint32_t kBlockSize = 1024;
inline constexpr std::uint32_t kSectorsPerBlock = kBlockSize / 512;

struct CacheConfig {
  std::size_t capacity_blocks = 3072;   // ~3 MB of a 16 MB node
  std::uint32_t max_coalesce_blocks = 16;  // physical request ceiling (16 KB)
  SimTime dirty_age_limit = sec(30);    // bdflush writes back older dirty
  // Metadata buffers (inodes, bitmaps, superblock) age out much faster, as
  // in Linux's bdflush — this is the dominant source of the baseline's
  // steady 1 KB write stream.
  SimTime metadata_age_limit = sec(5);
  SimTime bdflush_period = sec(5);
  double dirty_ratio_limit = 0.4;       // flush when > 40% of cache dirty
};

struct CacheStats {
  std::uint64_t read_hits = 0;
  std::uint64_t read_misses = 0;
  std::uint64_t writes = 0;            // logical block writes into cache
  std::uint64_t writebacks = 0;        // physical write requests issued
  std::uint64_t writeback_blocks = 0;
  std::uint64_t read_requests = 0;     // physical read requests issued
  std::uint64_t read_blocks = 0;
  std::uint64_t forced_evict_flushes = 0;
};

class BufferCache {
 public:
  using Done = driver::IdeDriver::Completion;

  BufferCache(driver::IdeDriver& drv, CacheConfig cfg);

  /// A contiguous block range, [first, first+count).
  struct Range {
    BlockNo first;
    std::uint32_t count;
  };

  /// The cache's one read: make every range resident. Ranges are handled
  /// in order, each looked up and then its missing runs fetched with one
  /// physical request per contiguous run (capped at max_coalesce_blocks),
  /// all under one countdown. Returns false, dropping `done` uncalled, when
  /// every block was already resident (the caller continues inline);
  /// returns true when `done` will fire once the last block arrives.
  bool fetch(std::span<const Range> ranges, Done done);
  bool fetch(BlockNo first, std::uint32_t count, Done done) {
    const Range range{first, count};
    return fetch({&range, 1}, std::move(done));
  }

  /// Write blocks [first, first+count) into the cache (write-behind).
  /// Completes logically at once; dirty data reaches the disk via bdflush,
  /// sync(), or eviction pressure. `metadata` selects the fast aging class.
  void write_range(BlockNo first, std::uint32_t count, bool metadata = false);

  /// Write-through a block range: issue the physical write now (used for
  /// critical metadata and by O_SYNC-style paths). `done` optional.
  void write_through(BlockNo first, std::uint32_t count, Done done = {});

  /// Flush every dirty block (the update daemon's sync()).
  void sync();

  /// One bdflush pass: flush dirty blocks older than the age limit, or the
  /// oldest ones if the dirty ratio is exceeded. Returns blocks flushed.
  std::size_t bdflush_pass();

  bool resident(BlockNo b) const { return index_.find(b) != nullptr; }
  std::size_t resident_blocks() const { return index_.size(); }
  std::size_t dirty_blocks() const { return by_deadline_.size(); }
  /// Blocks pinned by in-flight reads; these cannot be evicted, so
  /// residency may transiently exceed capacity by up to this many.
  std::size_t pinned_blocks() const { return pinned_count_; }
  const CacheStats& stats() const { return stats_; }
  const CacheConfig& config() const { return cfg_; }

  /// Drop a clean block (e.g., file deleted). Dirty blocks are discarded too.
  void invalidate(BlockNo b);

 private:
  using Slot = std::uint32_t;
  static constexpr Slot kNil = ~Slot{0};

  /// One resident block. `newer`/`older` link the LRU list through slab
  /// slots; a free slot's `older` links the free list.
  struct Buffer {
    BlockNo block = 0;
    Slot newer = kNil;
    Slot older = kNil;
    SimTime dirty_since = 0;
    bool dirty = false;
    bool metadata = false;           // fast-aging write-back class
    bool io_pending = false;         // a read for this block is in flight
    bool waited = false;             // waiters_ holds readers of this block
  };

  /// A caller waiting on several I/Os (a read's runs and the in-flight
  /// blocks it waits for, or a write-through's runs): `done` fires when
  /// the count reaches 0, and the slot is reused.
  struct Countdown {
    std::size_t remaining = 0;
    Done done;
  };

  using DeadlineKey = std::pair<SimTime, BlockNo>;

  /// A dirty buffer's place in the write-back order: its flush deadline
  /// (dirty_since plus its class's age limit), ties broken by block.
  DeadlineKey deadline_key(const Buffer& buf) const;
  void mark_dirty(Buffer& buf, bool metadata, SimTime now);
  void mark_clean(Buffer& buf);
  /// The slot holding block `b`, or kNil.
  Slot lookup(BlockNo b) const {
    const Slot* s = index_.find(b);
    return s == nullptr ? kNil : *s;
  }
  void lru_unlink(Slot s);
  void lru_push_front(Slot s);
  void touch(Slot s);
  /// Make a non-resident block resident at the LRU front (evicting first).
  Slot insert(BlockNo b);
  /// Drop a resident block from the LRU, the index and the slab.
  void remove(Slot s);
  void maybe_evict();
  /// Flush a sorted list of dirty block numbers, coalescing adjacent runs.
  void flush_blocks(std::vector<BlockNo> blocks);
  /// Look up one range: count its hits and fill runs_ (missing runs) and
  /// waits_ (blocks already in flight).
  void scan_range(const Range& range);
  void issue_read_run(BlockNo first, std::uint32_t count, Slot countdown);
  /// A read run's I/O completed: unpin its blocks and wake their waiters.
  void finish_read_run(BlockNo first, std::uint32_t count, Slot countdown);
  /// A countdown slot (reused or new) owning `done`.
  Slot new_countdown(std::size_t remaining, Done done);
  /// One of a countdown's I/Os finished.
  void count_down(Slot countdown);

  driver::IdeDriver& drv_;
  CacheConfig cfg_;
  std::vector<Buffer> slab_;
  Slot free_ = kNil;          // head of the free slot list
  Slot lru_head_ = kNil;      // most recent
  Slot lru_tail_ = kNil;      // least recent
  util::FlatMap<BlockNo, Slot> index_;
  // Invariant: holds exactly the dirty blocks, each keyed by its current
  // deadline_key(), so bdflush reads the oldest off the front and no pass
  // walks the clean residents.
  std::set<DeadlineKey> by_deadline_;
  std::size_t pinned_count_ = 0;
  CacheStats stats_;
  std::vector<Range> runs_;  // scan_range's scratch: missing runs
  std::vector<Slot> waits_;  // and in-flight blocks to wait for
  std::vector<Countdown> countdowns_;
  std::vector<Slot> free_countdowns_;
  // Countdowns of reads waiting for an in-flight block, in arrival order.
  util::FlatMap<BlockNo, std::vector<Slot>> waiters_;
};

}  // namespace ess::block
