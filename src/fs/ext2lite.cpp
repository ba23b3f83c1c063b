#include "fs/ext2lite.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace ess::fs {
namespace {

constexpr std::uint32_t kBlockSize = block::kBlockSize;
constexpr std::uint32_t kInodesPerBlock = kBlockSize / 128;  // 128 B inodes
constexpr std::uint32_t kDirectBlocks = 12;
constexpr std::uint32_t kPointersPerIndirect = kBlockSize / 4;

std::uint64_t blocks_for(std::uint64_t bytes) {
  return (bytes + kBlockSize - 1) / kBlockSize;
}

}  // namespace

Ext2Lite::Ext2Lite(block::BufferCache& cache, FsConfig cfg)
    : cache_(cache), cfg_(cfg) {
  if (cfg_.total_blocks < 256) {
    throw std::invalid_argument("Ext2Lite: partition too small");
  }
}

void Ext2Lite::mkfs() {
  if (formatted_) throw std::logic_error("Ext2Lite: already formatted");
  formatted_ = true;

  bitmap_blocks_ = (cfg_.total_blocks + 8 * kBlockSize - 1) / (8 * kBlockSize);
  inode_bitmap_block_ = block_bitmap_start() + bitmap_blocks_;
  inode_table_start_ = inode_bitmap_block_ + 1;
  const std::uint64_t inode_table_blocks =
      cfg_.spread_inodes
          ? std::uint64_t{cfg_.inode_count} * cfg_.inode_spread_stride
          : (cfg_.inode_count + kInodesPerBlock - 1) / kInodesPerBlock;
  root_dir_block_ = inode_table_start_ + inode_table_blocks;
  data_start_ = root_dir_block_ + 1;

  used_.assign(cfg_.total_blocks, false);
  for (BlockNo b = 0; b < data_start_; ++b) used_[b] = true;
  free_blocks_ = cfg_.total_blocks - data_start_;
  alloc_cursor_ = data_start_;

  // Write the fresh metadata (boot block untouched, as mke2fs does).
  cache_.write_range(superblock_block(), 1, true);
  cache_.write_range(block_bitmap_start(),
                     static_cast<std::uint32_t>(bitmap_blocks_), true);
  cache_.write_range(inode_bitmap_block_, 1, true);
  cache_.write_range(root_dir_block_, 1, true);
}

BlockNo Ext2Lite::inode_block(Ino ino) const {
  const auto it = inodes_.find(ino);
  if (it != inodes_.end() && it->second.inode_block != 0) {
    return it->second.inode_block;
  }
  return table_inode_block(ino);
}

BlockNo Ext2Lite::table_inode_block(Ino ino) const {
  if (cfg_.spread_inodes) {
    return inode_table_start_ +
           std::uint64_t{ino} * cfg_.inode_spread_stride;
  }
  return inode_table_start_ + ino / kInodesPerBlock;
}

BlockNo Ext2Lite::bitmap_block_for(BlockNo b) const {
  return block_bitmap_start() + b / (8 * kBlockSize);
}

BlockNo Ext2Lite::allocate_block(BlockNo goal) {
  if (free_blocks_ == 0) throw std::runtime_error("Ext2Lite: disk full");
  if (goal < data_start_ || goal >= cfg_.total_blocks) goal = alloc_cursor_;
  for (std::uint64_t i = 0; i < cfg_.total_blocks; ++i) {
    const BlockNo b =
        data_start_ +
        (goal - data_start_ + i) % (cfg_.total_blocks - data_start_);
    if (!used_[b]) {
      used_[b] = true;
      --free_blocks_;
      ++stats_.blocks_allocated;
      alloc_cursor_ = b + 1 < cfg_.total_blocks ? b + 1 : data_start_;
      cache_.write_range(bitmap_block_for(b), 1, true);
      return b;
    }
  }
  throw std::logic_error("Ext2Lite: bitmap inconsistent");
}

void Ext2Lite::free_block(BlockNo b) {
  if (!used_.at(b)) throw std::logic_error("Ext2Lite: double free");
  used_[b] = false;
  ++free_blocks_;
  cache_.write_range(bitmap_block_for(b), 1, true);
  cache_.invalidate(b);
}

std::string Ext2Lite::parent_of(const std::string& path) {
  const auto pos = path.rfind('/');
  if (pos == std::string::npos || pos == 0) return "";
  return path.substr(0, pos);
}

BlockNo Ext2Lite::dir_block(Ino dir_ino) const {
  if (dir_ino == 0) return root_dir_block_;  // ino 0 is the root directory
  const auto& node = inodes_.at(dir_ino);
  if (!node.is_dir || node.blocks.empty()) {
    throw std::logic_error("Ext2Lite: not a directory inode");
  }
  return node.blocks.front();
}

Ino Ext2Lite::ensure_parent(const std::string& path) {
  const std::string parent = parent_of(path);
  if (parent.empty()) return 0;  // root
  const auto it = dir_.find(parent);
  if (it != dir_.end()) {
    if (!inodes_.at(it->second).is_dir) {
      throw std::runtime_error("Ext2Lite: not a directory: " + parent);
    }
    return it->second;
  }
  return mkdir(parent);
}

Ino Ext2Lite::mkdir(const std::string& path) {
  if (!formatted_) throw std::logic_error("Ext2Lite: not formatted");
  if (path.empty() || path == "/") return 0;
  const auto existing = dir_.find(path);
  if (existing != dir_.end()) {
    if (!inodes_.at(existing->second).is_dir) {
      throw std::runtime_error("Ext2Lite: exists as file: " + path);
    }
    return existing->second;
  }
  if (next_ino_ >= cfg_.inode_count) {
    throw std::runtime_error("Ext2Lite: out of inodes");
  }
  const Ino parent = ensure_parent(path);
  const Ino ino = next_ino_++;
  Inode node;
  node.path = path;
  node.is_dir = true;
  node.blocks.push_back(allocate_block(alloc_cursor_));
  node.size_bytes = block::kBlockSize;
  inodes_.emplace(ino, std::move(node));
  dir_.emplace(path, ino);
  // New inode + its fresh (empty) entry block + the parent's entry block.
  cache_.write_range(inode_bitmap_block_, 1, true);
  cache_.write_range(inode_block(ino), 1, true);
  cache_.write_range(dir_block(ino), 1, true);
  cache_.write_range(dir_block(parent), 1, true);
  return ino;
}

bool Ext2Lite::is_directory(Ino ino) const {
  if (ino == 0) return true;
  const auto it = inodes_.find(ino);
  return it != inodes_.end() && it->second.is_dir;
}

std::vector<std::string> Ext2Lite::list_dir(const std::string& path) const {
  const std::string prefix = (path.empty() || path == "/") ? "" : path;
  std::vector<std::string> out;
  for (const auto& [p, ino] : dir_) {
    if (parent_of(p) == prefix) out.push_back(p);
  }
  return out;
}

Ino Ext2Lite::create(const std::string& path, BlockNo goal_block) {
  if (!formatted_) throw std::logic_error("Ext2Lite: not formatted");
  if (dir_.count(path)) throw std::runtime_error("Ext2Lite: exists: " + path);
  if (next_ino_ >= cfg_.inode_count) {
    throw std::runtime_error("Ext2Lite: out of inodes");
  }
  const Ino parent = ensure_parent(path);
  ++stats_.creates;
  const Ino ino = next_ino_++;
  Inode node;
  node.path = path;
  node.readahead.set_ceiling(cfg_.readahead_ceiling_blocks);
  if (goal_block != 0) {
    // The file's data will be allocated at/after this block (ext2's
    // block-group goal), no matter when the first write happens.
    node.goal_block = std::clamp<BlockNo>(goal_block, data_start_,
                                          cfg_.total_blocks - 1);
    // The inode lives in the goal's block group, just below the data.
    BlockNo ib = node.goal_block > data_start_ + cfg_.inode_group_offset
                     ? node.goal_block - cfg_.inode_group_offset
                     : data_start_;
    while (ib > data_start_ && used_[ib]) --ib;
    if (!used_[ib]) {
      used_[ib] = true;
      --free_blocks_;
      node.inode_block = ib;
    }
  }
  inodes_.emplace(ino, std::move(node));
  dir_.emplace(path, ino);
  cache_.write_range(inode_bitmap_block_, 1, true);
  cache_.write_range(inode_block(ino), 1, true);
  cache_.write_range(dir_block(parent), 1, true);
  return ino;
}

std::optional<Ino> Ext2Lite::lookup(const std::string& path) const {
  const auto it = dir_.find(path);
  if (it == dir_.end()) return std::nullopt;
  return it->second;
}

void Ext2Lite::charge_indirect(Inode& node, Ino ino) {
  // One indirect block once the file passes 12 blocks, then one more per
  // 256 mapped blocks (single-indirect pointer pages; the double-indirect
  // root is charged with the first overflow page).
  const std::uint64_t mapped = node.blocks.size();
  std::uint32_t needed = 0;
  if (mapped > kDirectBlocks) {
    needed = 1 + static_cast<std::uint32_t>(
                     (mapped - kDirectBlocks - 1) / kPointersPerIndirect);
  }
  while (node.indirect_blocks.size() < needed) {
    const BlockNo meta = allocate_block(alloc_cursor_);
    cache_.write_range(meta, 1, true);
    node.indirect_blocks.push_back(meta);
    cache_.write_range(inode_block(ino), 1, true);
  }
}

void Ext2Lite::extend_to(Inode& node, Ino ino, std::uint64_t new_block_count,
                         BlockNo goal) {
  while (node.blocks.size() < new_block_count) {
    const BlockNo want =
        node.blocks.empty() ? goal : node.blocks.back() + 1;
    node.blocks.push_back(allocate_block(want));
    charge_indirect(node, ino);
  }
}

void Ext2Lite::collect_runs(const Inode& node, std::uint64_t first_lb,
                            std::uint64_t last_lb) {
  runs_.clear();
  for (std::uint64_t lb = first_lb; lb <= last_lb; ++lb) {
    const BlockNo pb = node.blocks[lb];
    if (!runs_.empty() && pb == runs_.back().first + runs_.back().count) {
      ++runs_.back().count;
    } else {
      runs_.push_back({pb, 1});
    }
  }
}

void Ext2Lite::write(Ino ino, std::uint64_t offset, std::uint64_t len) {
  auto& node = inodes_.at(ino);
  ++stats_.write_calls;
  stats_.bytes_written += len;
  if (len == 0) return;

  const std::uint64_t end = offset + len;
  extend_to(node, ino, blocks_for(end),
            node.goal_block != 0 ? node.goal_block : alloc_cursor_);
  node.size_bytes = std::max(node.size_bytes, end);

  // Dirty the data blocks, run by physically-contiguous run.
  collect_runs(node, offset / kBlockSize, (end - 1) / kBlockSize);
  for (const auto& run : runs_) cache_.write_range(run.first, run.count);

  // Size/mtime change dirties the inode.
  cache_.write_range(inode_block(ino), 1, true);
}

bool Ext2Lite::read(Ino ino, std::uint64_t offset, std::uint64_t len,
                    Done done) {
  auto& node = inodes_.at(ino);
  ++stats_.read_calls;
  if (len == 0 || offset >= node.size_bytes) return false;
  len = std::min(len, node.size_bytes - offset);
  stats_.bytes_read += len;

  const std::uint64_t first_lb = offset / kBlockSize;
  std::uint64_t last_lb = (offset + len - 1) / kBlockSize;

  // Sequential read-ahead: extend the logical range, clamped to the file.
  const auto span = static_cast<std::uint32_t>(last_lb - first_lb + 1);
  const std::uint32_t ahead = node.readahead.advise(first_lb, span);
  const std::uint64_t file_blocks = node.blocks.size();
  last_lb = std::min<std::uint64_t>(last_lb + ahead,
                                    file_blocks == 0 ? 0 : file_blocks - 1);

  // One cache fetch over the physically-contiguous runs.
  collect_runs(node, first_lb, last_lb);
  const bool waits = cache_.fetch(runs_, std::move(done));

  // atime update: the read dirties the inode block (Linux default).
  if (cfg_.atime_updates) cache_.write_range(inode_block(ino), 1, true);
  return waits;
}

void Ext2Lite::unlink(const std::string& path) {
  const auto it = dir_.find(path);
  if (it == dir_.end()) throw std::runtime_error("Ext2Lite: no such file");
  const Ino ino = it->second;
  auto& node = inodes_.at(ino);
  if (node.is_dir && !list_dir(path).empty()) {
    throw std::runtime_error("Ext2Lite: directory not empty: " + path);
  }
  const Ino parent = ensure_parent(path);
  ++stats_.unlinks;
  for (const BlockNo b : node.blocks) free_block(b);
  for (const BlockNo b : node.indirect_blocks) free_block(b);
  if (node.inode_block != 0) {
    used_[node.inode_block] = false;
    ++free_blocks_;
  }
  cache_.write_range(inode_bitmap_block_, 1, true);
  cache_.write_range(inode_block(ino), 1, true);
  cache_.write_range(dir_block(parent), 1, true);
  inodes_.erase(ino);
  dir_.erase(it);
}

std::vector<std::string> Ext2Lite::fsck() const {
  std::vector<std::string> errors;
  if (!formatted_) {
    errors.push_back("not formatted");
    return errors;
  }
  // Pass 1: block ownership — every data/indirect/inode-group block of
  // every inode must be marked used, exactly once across inodes.
  std::vector<std::uint8_t> refs(cfg_.total_blocks, 0);
  for (BlockNo b = 0; b < data_start_; ++b) refs[b] = 1;  // metadata region
  auto claim = [&](BlockNo b, const std::string& who) {
    if (b >= cfg_.total_blocks) {
      errors.push_back(who + ": block out of range");
      return;
    }
    if (!used_[b]) errors.push_back(who + ": references a free block");
    if (++refs[b] > 1) errors.push_back(who + ": block multiply referenced");
  };
  for (const auto& [ino, node] : inodes_) {
    for (const BlockNo b : node.blocks) claim(b, node.path);
    for (const BlockNo b : node.indirect_blocks) {
      claim(b, node.path + " (indirect)");
    }
    if (node.inode_block != 0) claim(node.inode_block, node.path + " (inode)");
  }
  // Pass 2: no allocated-but-orphaned blocks.
  std::uint64_t used_count = 0;
  for (BlockNo b = 0; b < cfg_.total_blocks; ++b) {
    if (used_[b]) {
      ++used_count;
      if (refs[b] == 0) {
        errors.push_back("orphaned allocated block " + std::to_string(b));
      }
    }
  }
  // Pass 3: free-space accounting.
  if (cfg_.total_blocks - used_count != free_blocks_) {
    errors.push_back("free block count mismatch");
  }
  // Pass 4: namespace — every entry's parent chain exists and is a
  // directory; sizes fit the block map.
  for (const auto& [path, ino] : dir_) {
    const auto& node = inodes_.at(ino);
    const std::string parent = parent_of(path);
    if (!parent.empty()) {
      const auto pit = dir_.find(parent);
      if (pit == dir_.end()) {
        errors.push_back("dangling entry (no parent): " + path);
      } else if (!inodes_.at(pit->second).is_dir) {
        errors.push_back("parent is not a directory: " + path);
      }
    }
    if (node.size_bytes >
        node.blocks.size() * std::uint64_t{block::kBlockSize}) {
      errors.push_back("size exceeds block map: " + path);
    }
  }
  return errors;
}

std::uint64_t Ext2Lite::size_of(Ino ino) const {
  return inodes_.at(ino).size_bytes;
}

InodeInfo Ext2Lite::stat(Ino ino) const {
  const auto& node = inodes_.at(ino);
  InodeInfo info;
  info.ino = ino;
  info.size_bytes = node.size_bytes;
  info.block_count = node.blocks.size();
  info.first_block = node.blocks.empty() ? 0 : node.blocks.front();
  info.contiguous = true;
  for (std::size_t i = 1; i < node.blocks.size(); ++i) {
    if (node.blocks[i] != node.blocks[i - 1] + 1) {
      info.contiguous = false;
      break;
    }
  }
  return info;
}

Ino Ext2Lite::create_contiguous(const std::string& path, std::uint64_t size,
                                BlockNo goal_block, std::uint64_t stride) {
  const std::uint64_t need = blocks_for(size);
  // Make missing parent directories first: each takes a block at
  // alloc_cursor_, which could otherwise land inside the run found free.
  ensure_parent(path);
  // Search the probes goal, goal+stride, ... (each raised to data_start)
  // for one whose run is free. A used block fails every probe whose run
  // covers it, so the search jumps to the first probe past it.
  BlockNo start = 0;
  for (BlockNo probe = goal_block;; probe += stride) {
    start = std::max<BlockNo>(probe, data_start_);
    if (start + need > cfg_.total_blocks) {
      throw std::runtime_error("Ext2Lite: contiguous run out of range");
    }
    const auto first = used_.begin() + static_cast<std::ptrdiff_t>(start);
    const auto last = first + static_cast<std::ptrdiff_t>(need);
    const auto used = std::find(first, last, true);
    if (used == last) break;  // the whole run is free
    if (stride == 0) {
      throw std::runtime_error("Ext2Lite: contiguous run not free at goal");
    }
    const BlockNo b = start + static_cast<BlockNo>(used - first);
    probe += (b - probe) / stride * stride;  // the loop steps past it
  }
  const Ino ino = create(path, 0);
  auto& node = inodes_.at(ino);
  // Claim the run directly: extend_to would interleave indirect metadata
  // blocks into the run and break the contiguity the VM image mapping
  // relies on.
  const auto run = used_.begin() + static_cast<std::ptrdiff_t>(start);
  std::fill(run, run + static_cast<std::ptrdiff_t>(need), true);
  free_blocks_ -= need;
  stats_.blocks_allocated += need;
  node.blocks.resize(need);
  std::iota(node.blocks.begin(), node.blocks.end(), start);
  const BlockNo bm_first = bitmap_block_for(start);
  const BlockNo bm_last = bitmap_block_for(start + need - 1);
  cache_.write_range(bm_first,
                     static_cast<std::uint32_t>(bm_last - bm_first + 1), true);
  alloc_cursor_ =
      start + need < cfg_.total_blocks ? start + need : data_start_;
  charge_indirect(node, ino);  // metadata lands after the run
  node.size_bytes = size;
  cache_.write_range(inode_block(ino), 1, true);
  return ino;
}

void Ext2Lite::sync() {
  ++stats_.syncs;
  // The update daemon rewrites the superblock every pass, then flushes.
  cache_.write_range(superblock_block(), 1, true);
  cache_.sync();
}

}  // namespace ess::fs
