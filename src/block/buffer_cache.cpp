#include "block/buffer_cache.hpp"

#include <algorithm>
#include <memory>

namespace ess::block {
namespace {

std::uint64_t first_sector(BlockNo b) { return b * kSectorsPerBlock; }

}  // namespace

BufferCache::BufferCache(driver::IdeDriver& drv, CacheConfig cfg)
    : drv_(drv), cfg_(cfg) {}

BufferCache::DeadlineKey BufferCache::deadline_key(BlockNo b,
                                                   const Buffer& buf) const {
  const SimTime limit =
      buf.metadata ? cfg_.metadata_age_limit : cfg_.dirty_age_limit;
  return {buf.dirty_since + limit, b};
}

void BufferCache::mark_dirty(BlockNo b, Buffer& buf, bool metadata,
                             SimTime now) {
  if (buf.dirty) {
    // Already dirty: dirty_since stays, but a change of class moves the
    // deadline, so the block is re-keyed.
    if (buf.metadata == metadata) return;
    by_deadline_.erase(deadline_key(b, buf));
    buf.metadata = metadata;
  } else {
    buf.dirty = true;
    buf.metadata = metadata;
    buf.dirty_since = now;
  }
  by_deadline_.insert(deadline_key(b, buf));
}

void BufferCache::mark_clean(BlockNo b, Buffer& buf) {
  if (!buf.dirty) return;
  by_deadline_.erase(deadline_key(b, buf));
  buf.dirty = false;
}

void BufferCache::touch(BlockNo b) {
  const auto it = map_.find(b);
  lru_.erase(it->second.lru_pos);
  lru_.push_front(b);
  it->second.lru_pos = lru_.begin();
}

BufferCache::Buffer& BufferCache::insert(BlockNo b) {
  maybe_evict();
  lru_.push_front(b);
  auto [it, fresh] = map_.emplace(b, Buffer{});
  it->second.lru_pos = lru_.begin();
  return it->second;
}

void BufferCache::maybe_evict() {
  while (map_.size() >= cfg_.capacity_blocks) {
    // Scan from the LRU tail for a victim; dirty victims are flushed first
    // (a forced write-back, visible in the trace as an extra write).
    bool evicted = false;
    for (auto rit = lru_.rbegin(); rit != lru_.rend(); ++rit) {
      const BlockNo b = *rit;
      auto& buf = map_.at(b);
      if (buf.io_pending) continue;
      if (buf.dirty) {
        ++stats_.forced_evict_flushes;
        flush_blocks({b});
      }
      lru_.erase(std::next(rit).base());
      map_.erase(b);
      evicted = true;
      break;
    }
    if (!evicted) return;  // everything pinned by in-flight I/O
  }
}

void BufferCache::read_range(BlockNo first, std::uint32_t count, Done done) {
  struct Run {
    BlockNo first;
    std::uint32_t count;
  };
  std::vector<Run> runs;
  std::vector<BlockNo> waits;

  for (std::uint32_t i = 0; i < count; ++i) {
    const BlockNo b = first + i;
    const auto it = map_.find(b);
    if (it != map_.end()) {
      if (it->second.io_pending) {
        waits.push_back(b);
      } else {
        ++stats_.read_hits;
        touch(b);
      }
      continue;
    }
    ++stats_.read_misses;
    if (!runs.empty() &&
        runs.back().first + runs.back().count == b &&
        runs.back().count < cfg_.max_coalesce_blocks) {
      ++runs.back().count;
    } else {
      runs.push_back(Run{b, 1});
    }
  }

  if (runs.empty() && waits.empty()) {
    if (done) done();
    return;
  }
  // A shared countdown over (missing runs + in-flight waits).
  auto remaining = std::make_shared<std::size_t>(runs.size() + waits.size());
  auto fire = [remaining, done = std::move(done)]() {
    if (--*remaining == 0 && done) done();
  };
  for (const BlockNo b : waits) waiters_[b].push_back(fire);
  for (const auto& run : runs) issue_read_run(run.first, run.count, fire);
}

void BufferCache::issue_read_run(BlockNo first, std::uint32_t count,
                                 Done done) {
  for (std::uint32_t i = 0; i < count; ++i) {
    Buffer& buf = insert(first + i);
    buf.io_pending = true;
    ++pinned_count_;
  }
  ++stats_.read_requests;
  stats_.read_blocks += count;
  drv_.submit(first_sector(first), count * kSectorsPerBlock, disk::Dir::kRead,
              [this, first, count, done = std::move(done)] {
                for (std::uint32_t i = 0; i < count; ++i) {
                  const auto it = map_.find(first + i);
                  if (it != map_.end() && it->second.io_pending) {
                    it->second.io_pending = false;
                    --pinned_count_;
                  }
                  const auto w = waiters_.find(first + i);
                  if (w != waiters_.end()) {
                    auto cbs = std::move(w->second);
                    waiters_.erase(w);
                    for (auto& cb : cbs) cb();
                  }
                }
                // Reads may have pushed residency past capacity while the
                // blocks were pinned; reclaim now that they are evictable.
                maybe_evict();
                if (done) done();
              });
}

void BufferCache::write_range(BlockNo first, std::uint32_t count,
                              bool metadata) {
  const SimTime now = drv_.drive().now();
  for (std::uint32_t i = 0; i < count; ++i) {
    const BlockNo b = first + i;
    ++stats_.writes;
    const auto it = map_.find(b);
    if (it != map_.end()) {
      touch(b);
      mark_dirty(b, it->second, metadata, now);
    } else {
      mark_dirty(b, insert(b), metadata, now);
    }
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
    const auto it = map_.find(b);
    if (it == map_.end()) {
      insert(b);
    } else {
      touch(b);
      mark_clean(b, it->second);
    }
  }
  std::uint32_t issued = 0;
  auto remaining = std::make_shared<std::size_t>(0);
  auto fire = [remaining, done = std::move(done)]() {
    if (--*remaining == 0 && done) done();
  };
  std::vector<std::pair<BlockNo, std::uint32_t>> runs;
  while (issued < count) {
    const std::uint32_t n =
        std::min(count - issued, cfg_.max_coalesce_blocks);
    runs.emplace_back(first + issued, n);
    issued += n;
  }
  *remaining = runs.size();
  for (const auto& [b, n] : runs) {
    ++stats_.writebacks;
    stats_.writeback_blocks += n;
    drv_.submit(first_sector(b), n * kSectorsPerBlock, disk::Dir::kWrite,
                fire);
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
    const auto it = map_.find(b);
    if (it == map_.end() || !it->second.dirty) continue;
    mark_clean(b, it->second);
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
  const auto it = map_.find(b);
  if (it == map_.end()) return;
  if (it->second.io_pending) return;  // keep; completion will clear state
  mark_clean(b, it->second);
  lru_.erase(it->second.lru_pos);
  map_.erase(it);
}

}  // namespace ess::block
