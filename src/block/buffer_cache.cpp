#include "block/buffer_cache.hpp"

#include <algorithm>

namespace ess::block {
namespace {

std::uint64_t first_sector(BlockNo b) { return b * kSectorsPerBlock; }

}  // namespace

BufferCache::BufferCache(driver::IdeDriver& drv, CacheConfig cfg)
    : drv_(drv), cfg_(cfg) {
  index_.reserve(cfg_.capacity_blocks);
}

BufferCache::DeadlineKey BufferCache::deadline_key(const Buffer& buf) const {
  const SimTime limit =
      buf.metadata ? cfg_.metadata_age_limit : cfg_.dirty_age_limit;
  return {buf.dirty_since + limit, buf.block};
}

void BufferCache::mark_dirty(Buffer& buf, bool metadata, SimTime now) {
  if (buf.dirty) {
    // Already dirty: dirty_since stays, but a change of class moves the
    // deadline, so the block is re-keyed.
    if (buf.metadata == metadata) return;
    by_deadline_.erase(deadline_key(buf));
    buf.metadata = metadata;
  } else {
    buf.dirty = true;
    buf.metadata = metadata;
    buf.dirty_since = now;
  }
  by_deadline_.insert(deadline_key(buf));
}

void BufferCache::mark_clean(Buffer& buf) {
  if (!buf.dirty) return;
  by_deadline_.erase(deadline_key(buf));
  buf.dirty = false;
}

void BufferCache::lru_unlink(Slot s) {
  Buffer& buf = slab_[s];
  (buf.newer == kNil ? lru_head_ : slab_[buf.newer].older) = buf.older;
  (buf.older == kNil ? lru_tail_ : slab_[buf.older].newer) = buf.newer;
}

void BufferCache::lru_push_front(Slot s) {
  Buffer& buf = slab_[s];
  buf.newer = kNil;
  buf.older = lru_head_;
  (lru_head_ == kNil ? lru_tail_ : slab_[lru_head_].newer) = s;
  lru_head_ = s;
}

void BufferCache::touch(Slot s) {
  if (s == lru_head_) return;
  lru_unlink(s);
  lru_push_front(s);
}

BufferCache::Slot BufferCache::insert(BlockNo b) {
  maybe_evict();
  Slot s = free_;
  if (s != kNil) {
    free_ = slab_[s].older;
    slab_[s] = Buffer{};
  } else {
    s = static_cast<Slot>(slab_.size());
    slab_.emplace_back();
  }
  slab_[s].block = b;
  lru_push_front(s);
  index_[b] = s;
  return s;
}

void BufferCache::remove(Slot s) {
  lru_unlink(s);
  index_.erase(slab_[s].block);
  slab_[s].older = free_;
  free_ = s;
}

void BufferCache::maybe_evict() {
  while (index_.size() >= cfg_.capacity_blocks) {
    // Scan from the LRU tail for a victim; dirty victims are flushed first
    // (a forced write-back, visible in the trace as an extra write).
    Slot s = lru_tail_;
    while (s != kNil && slab_[s].io_pending) s = slab_[s].newer;
    if (s == kNil) return;  // everything pinned by in-flight I/O
    if (slab_[s].dirty) {
      ++stats_.forced_evict_flushes;
      flush_blocks({slab_[s].block});
    }
    remove(s);
  }
}

BufferCache::Slot BufferCache::new_countdown(std::size_t remaining,
                                             Done done) {
  Slot c = static_cast<Slot>(countdowns_.size());
  if (free_countdowns_.empty()) {
    countdowns_.emplace_back();
  } else {
    c = free_countdowns_.back();
    free_countdowns_.pop_back();
  }
  countdowns_[c].remaining = remaining;
  countdowns_[c].done = std::move(done);
  return c;
}

void BufferCache::count_down(Slot c) {
  if (--countdowns_[c].remaining != 0) return;
  // Free the slot before the callback, which may start new reads.
  Done done = std::move(countdowns_[c].done);
  free_countdowns_.push_back(c);
  if (done) done();
}

bool BufferCache::fetch(std::span<const Range> ranges, Done done) {
  // The countdown is created by the first range that must wait, with one
  // extra count held until the last range has been issued.
  Slot c = kNil;
  for (const Range& range : ranges) {
    scan_range(range);
    if (runs_.empty() && waits_.empty()) continue;
    if (c == kNil) c = new_countdown(1, std::move(done));
    countdowns_[c].remaining += runs_.size() + waits_.size();
    for (const Slot s : waits_) {
      slab_[s].waited = true;
      waiters_[slab_[s].block].push_back(c);
    }
    for (const Range& run : runs_) issue_read_run(run.first, run.count, c);
  }
  if (c == kNil) return false;
  // Release the hold. The driver never completes a request inside
  // submit(), so this cannot fire `done` here.
  count_down(c);
  return true;
}

void BufferCache::scan_range(const Range& range) {
  // Scratch reused across calls: nothing re-enters fetch while it runs,
  // since the driver never completes a request inside submit().
  runs_.clear();
  waits_.clear();
  for (std::uint32_t i = 0; i < range.count; ++i) {
    const BlockNo b = range.first + i;
    const Slot s = lookup(b);
    if (s != kNil) {
      if (slab_[s].io_pending) {
        waits_.push_back(s);
      } else {
        ++stats_.read_hits;
        touch(s);
      }
      continue;
    }
    ++stats_.read_misses;
    if (!runs_.empty() && runs_.back().first + runs_.back().count == b &&
        runs_.back().count < cfg_.max_coalesce_blocks) {
      ++runs_.back().count;
    } else {
      runs_.push_back(Range{b, 1});
    }
  }
}

void BufferCache::issue_read_run(BlockNo first, std::uint32_t count,
                                 Slot countdown) {
  for (std::uint32_t i = 0; i < count; ++i) {
    slab_[insert(first + i)].io_pending = true;
    ++pinned_count_;
  }
  ++stats_.read_requests;
  stats_.read_blocks += count;
  drv_.submit(first_sector(first), count * kSectorsPerBlock, disk::Dir::kRead,
              [this, first, count, countdown] {
                finish_read_run(first, count, countdown);
              });
}

void BufferCache::finish_read_run(BlockNo first, std::uint32_t count,
                                  Slot countdown) {
  for (std::uint32_t i = 0; i < count; ++i) {
    const BlockNo b = first + i;
    const Slot s = lookup(b);
    if (s == kNil || !slab_[s].io_pending) continue;
    slab_[s].io_pending = false;
    --pinned_count_;
    if (!slab_[s].waited) continue;
    slab_[s].waited = false;
    // The waiters' callbacks may re-enter the cache, so their list leaves
    // the table before any of them runs.
    const std::vector<Slot> waiting = std::move(*waiters_.find(b));
    waiters_.erase(b);
    for (const Slot c : waiting) count_down(c);
  }
  // Reads may have pushed residency past capacity while the blocks were
  // pinned; reclaim now that they are evictable.
  maybe_evict();
  count_down(countdown);
}

void BufferCache::write_range(BlockNo first, std::uint32_t count,
                              bool metadata) {
  const SimTime now = drv_.drive().now();
  for (std::uint32_t i = 0; i < count; ++i) {
    const BlockNo b = first + i;
    ++stats_.writes;
    Slot s = lookup(b);
    if (s != kNil) {
      touch(s);
    } else {
      s = insert(b);
    }
    mark_dirty(slab_[s], metadata, now);
  }
  // Over the dirty ratio: flush the oldest dirty blocks (bdflush wakeup).
  if (static_cast<double>(by_deadline_.size()) >
      cfg_.dirty_ratio_limit * static_cast<double>(cfg_.capacity_blocks)) {
    bdflush_pass();
  }
}

void BufferCache::write_through(BlockNo first, std::uint32_t count,
                                Done done) {
  for (std::uint32_t i = 0; i < count; ++i) {
    const BlockNo b = first + i;
    ++stats_.writes;
    const Slot s = lookup(b);
    if (s == kNil) {
      insert(b);
    } else {
      touch(s);
      mark_clean(slab_[s]);
    }
  }
  const std::uint32_t runs =
      (count + cfg_.max_coalesce_blocks - 1) / cfg_.max_coalesce_blocks;
  const Slot c =
      done && runs > 0 ? new_countdown(runs, std::move(done)) : kNil;
  for (std::uint32_t issued = 0; issued < count;) {
    const std::uint32_t n =
        std::min(count - issued, cfg_.max_coalesce_blocks);
    ++stats_.writebacks;
    stats_.writeback_blocks += n;
    if (c == kNil) {
      drv_.submit(first_sector(first + issued), n * kSectorsPerBlock,
                  disk::Dir::kWrite);
    } else {
      drv_.submit(first_sector(first + issued), n * kSectorsPerBlock,
                  disk::Dir::kWrite, [this, c] { count_down(c); });
    }
    issued += n;
  }
}

void BufferCache::sync() {
  std::vector<BlockNo> dirty;
  dirty.reserve(by_deadline_.size());
  for (const auto& [deadline, b] : by_deadline_) dirty.push_back(b);
  flush_blocks(std::move(dirty));
}

std::size_t BufferCache::bdflush_pass() {
  const SimTime now = drv_.drive().now();
  // Flush every block past its deadline; additionally, if the dirty ratio
  // is exceeded, flush the oldest blocks until only `lo` remain dirty.
  const auto hi = static_cast<std::size_t>(
      cfg_.dirty_ratio_limit * static_cast<double>(cfg_.capacity_blocks));
  const std::size_t lo = hi / 2;
  const std::size_t dirty = by_deadline_.size();
  const std::size_t must_drop = dirty > hi ? dirty - lo : 0;
  // Both rules pick a prefix of the deadline order, so their union is one
  // too: the pass stops at the first block that neither picks.
  std::vector<BlockNo> to_flush;
  for (const auto& [deadline, b] : by_deadline_) {
    if (deadline > now && to_flush.size() >= must_drop) break;
    to_flush.push_back(b);
  }
  const std::size_t n = to_flush.size();
  flush_blocks(std::move(to_flush));
  return n;
}

void BufferCache::flush_blocks(std::vector<BlockNo> blocks) {
  std::sort(blocks.begin(), blocks.end());
  blocks.erase(std::unique(blocks.begin(), blocks.end()), blocks.end());

  BlockNo run_first = 0;
  std::uint32_t run_len = 0;
  auto emit_run = [&] {
    if (run_len == 0) return;
    ++stats_.writebacks;
    stats_.writeback_blocks += run_len;
    drv_.submit(first_sector(run_first), run_len * kSectorsPerBlock,
                disk::Dir::kWrite);
    run_len = 0;
  };

  for (const BlockNo b : blocks) {
    const Slot s = lookup(b);
    if (s == kNil || !slab_[s].dirty) continue;
    mark_clean(slab_[s]);
    if (run_len > 0 && b == run_first + run_len &&
        run_len < cfg_.max_coalesce_blocks) {
      ++run_len;
    } else {
      emit_run();
      run_first = b;
      run_len = 1;
    }
  }
  emit_run();
}

void BufferCache::invalidate(BlockNo b) {
  const Slot s = lookup(b);
  if (s == kNil) return;
  if (slab_[s].io_pending) return;  // keep; completion will clear state
  mark_clean(slab_[s]);
  remove(s);
}

}  // namespace ess::block
