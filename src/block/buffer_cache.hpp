// The 1 KB buffer cache (Linux 1.x style) with write-behind and request
// coalescing.
//
// This layer is where the paper's request-size classes come from:
//  * a single cached block miss or metadata write  -> 1 KB physical request
//  * adjacent dirty blocks flushed together        -> 2 KB, 3 KB, ...
//  * sequential read-ahead windows                 -> up to the 16 KB cache
//    ceiling (32 KB under the combined load's enlarged I/O buffering)
#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <set>
#include <unordered_map>
#include <vector>

#include "driver/ide_driver.hpp"
#include "util/sim_time.hpp"

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
  using Done = std::function<void()>;

  BufferCache(driver::IdeDriver& drv, CacheConfig cfg);

  /// Ensure blocks [first, first+count) are resident, then invoke `done`.
  /// Missing runs are fetched with one physical request per contiguous run,
  /// each capped at max_coalesce_blocks.
  void read_range(BlockNo first, std::uint32_t count, Done done);

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

  bool resident(BlockNo b) const { return map_.count(b) != 0; }
  std::size_t resident_blocks() const { return map_.size(); }
  std::size_t dirty_blocks() const { return by_deadline_.size(); }
  /// Blocks pinned by in-flight reads; these cannot be evicted, so
  /// residency may transiently exceed capacity by up to this many.
  std::size_t pinned_blocks() const { return pinned_count_; }
  const CacheStats& stats() const { return stats_; }
  const CacheConfig& config() const { return cfg_; }

  /// Raise/lower the physical request ceiling at runtime (the kernel grows
  /// its I/O buffering under combined load; the paper attributes the
  /// 16-32 KB class to this).
  void set_max_coalesce_blocks(std::uint32_t n) { cfg_.max_coalesce_blocks = n; }

  /// Drop a clean block (e.g., file deleted). Dirty blocks are discarded too.
  void invalidate(BlockNo b);

 private:
  struct Buffer {
    bool dirty = false;
    bool metadata = false;           // fast-aging write-back class
    bool io_pending = false;         // a read for this block is in flight
    SimTime dirty_since = 0;
    std::list<BlockNo>::iterator lru_pos;
  };

  using DeadlineKey = std::pair<SimTime, BlockNo>;

  /// A dirty buffer's place in the write-back order: its flush deadline
  /// (dirty_since plus its class's age limit), ties broken by block.
  DeadlineKey deadline_key(BlockNo b, const Buffer& buf) const;
  void mark_dirty(BlockNo b, Buffer& buf, bool metadata, SimTime now);
  void mark_clean(BlockNo b, Buffer& buf);
  void touch(BlockNo b);
  Buffer& insert(BlockNo b);
  void maybe_evict();
  /// Flush a sorted list of dirty block numbers, coalescing adjacent runs.
  void flush_blocks(std::vector<BlockNo> blocks);
  void issue_read_run(BlockNo first, std::uint32_t count, Done done);

  driver::IdeDriver& drv_;
  CacheConfig cfg_;
  std::unordered_map<BlockNo, Buffer> map_;
  std::list<BlockNo> lru_;  // front = most recent
  // Invariant: holds exactly the dirty blocks, each keyed by its current
  // deadline_key(), so bdflush reads the oldest off the front and no pass
  // walks the clean residents.
  std::set<DeadlineKey> by_deadline_;
  std::size_t pinned_count_ = 0;
  CacheStats stats_;
  // Readers waiting for an in-flight block.
  std::unordered_map<BlockNo, std::vector<Done>> waiters_;
};

}  // namespace ess::block
