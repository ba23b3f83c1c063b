// ext2lite: an ext2-flavoured filesystem over the 1 KB buffer cache.
//
// The simulator tracks *where* file bytes live (block addresses), not the
// bytes themselves — the workload model supplies content semantics. What
// matters for the study is which blocks each operation dirties or reads:
//   create  -> inode bitmap block, inode table block, directory block
//   write   -> data blocks, block bitmap block(s), inode block, indirect
//              metadata blocks when the file outgrows the direct map
//   read    -> data blocks (with read-ahead), inode block (atime update)
//   unlink  -> bitmap blocks, inode block, directory block
//   sync    -> superblock + everything dirty, via the update daemon
//
// Simplification (documented in DESIGN.md): the logical block map of every
// inode is kept in memory after mount; indirect-block *writes* are charged
// when allocated, but cold indirect-block reads are not re-charged. At the
// paper's file sizes (< 2 MB) the direct map covers most accesses.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "block/buffer_cache.hpp"
#include "block/readahead.hpp"

namespace ess::fs {

using Ino = std::uint32_t;
using BlockNo = block::BlockNo;

struct FsConfig {
  std::uint64_t total_blocks = 0;   // size of the FS partition in 1 KB blocks
  std::uint32_t inode_count = 512;
  bool atime_updates = true;        // reads dirty the inode block (as Linux)
  std::uint32_t readahead_ceiling_blocks = 16;
  /// ext2 spreads inodes across block groups and co-locates each file's
  /// inode with its data. We model that two ways: a file created with a
  /// goal block gets its inode block just below the goal (in "its" block
  /// group); goal-less files get a slot in the base table, spaced
  /// `inode_spread_stride` blocks apart so distinct files' inode updates
  /// never coalesce. The paper's disk hot spots are exactly such inode
  /// blocks of busy files.
  bool spread_inodes = true;
  std::uint32_t inode_spread_stride = 16;
  std::uint32_t inode_group_offset = 8;  // inode lands goal - offset
};

struct FsStats {
  std::uint64_t creates = 0;
  std::uint64_t unlinks = 0;
  std::uint64_t read_calls = 0;
  std::uint64_t write_calls = 0;
  std::uint64_t bytes_read = 0;
  std::uint64_t bytes_written = 0;
  std::uint64_t blocks_allocated = 0;
  std::uint64_t syncs = 0;
};

struct InodeInfo {
  Ino ino = 0;
  std::uint64_t size_bytes = 0;
  std::uint64_t block_count = 0;
  BlockNo first_block = 0;  // 0 when the file has no blocks yet
  bool contiguous = true;
};

class Ext2Lite {
 public:
  using Done = block::BufferCache::Done;

  Ext2Lite(block::BufferCache& cache, FsConfig cfg);

  /// Format: reserves superblock/bitmaps/inode table and creates the root
  /// directory. Dirties the metadata region (flushed on the first sync).
  void mkfs();

  /// Create an empty file. `goal_block` hints where its data should land
  /// (0 = allocator default); this is how the experiment places the syslog
  /// file, the trace file, and the program images at the disk locations the
  /// paper observed as hot spots. Missing parent directories are created
  /// (each with its own inode and entry block); adding the entry dirties
  /// the parent directory's block.
  Ino create(const std::string& path, BlockNo goal_block = 0);

  /// Create a directory (parents created as needed). Idempotent.
  Ino mkdir(const std::string& path);

  std::optional<Ino> lookup(const std::string& path) const;
  bool is_directory(Ino ino) const;

  /// List the entry names of a directory.
  std::vector<std::string> list_dir(const std::string& path) const;

  /// Read `len` bytes at `offset`, applying per-file sequential
  /// read-ahead. Returns false, dropping `done` uncalled, when the data is
  /// already resident (or there is nothing to read: `len == 0` or past
  /// EOF); returns true when `done` will fire once it arrives.
  bool read(Ino ino, std::uint64_t offset, std::uint64_t len, Done done);

  /// Write `len` bytes at `offset` (write-behind via the buffer cache).
  /// Allocates blocks on extension, preferring contiguity.
  void write(Ino ino, std::uint64_t offset, std::uint64_t len);

  void unlink(const std::string& path);

  /// Append convenience: write at current size.
  void append(Ino ino, std::uint64_t len) { write(ino, size_of(ino), len); }

  std::uint64_t size_of(Ino ino) const;
  InodeInfo stat(Ino ino) const;

  /// Pre-allocate a fully contiguous file of `size` bytes (used to stage
  /// executables and input data before an experiment). The run starts at
  /// the first of goal_block, goal_block + stride, ... (each raised to
  /// data_start()) where it is free; stride 0 tries goal_block alone.
  /// Throws if no such run fits on the partition.
  Ino create_contiguous(const std::string& path, std::uint64_t size,
                        BlockNo goal_block, std::uint64_t stride = 0);

  /// The update daemon's periodic sync: superblock write + flush dirty.
  void sync();

  /// Consistency check (fsck): verifies the allocation bitmap against
  /// every inode's block list, directory reachability, and size/block
  /// accounting. Returns the list of inconsistencies (empty = clean).
  std::vector<std::string> fsck() const;

  std::uint64_t free_blocks() const { return free_blocks_; }
  const FsStats& stats() const { return stats_; }
  const FsConfig& config() const { return cfg_; }

  /// Metadata geometry (exposed for tests and the experiment layout).
  BlockNo superblock_block() const { return 1; }
  BlockNo block_bitmap_start() const { return 2; }
  BlockNo inode_table_start() const { return inode_table_start_; }
  BlockNo data_start() const { return data_start_; }

 private:
  struct Inode {
    std::string path;
    bool is_dir = false;
    BlockNo goal_block = 0;   // allocation goal for this file's data
    BlockNo inode_block = 0;  // where this inode's table block lives
    std::uint64_t size_bytes = 0;
    std::vector<BlockNo> blocks;          // logical -> physical map
    std::vector<BlockNo> indirect_blocks; // charged metadata blocks
    block::ReadAhead readahead;
  };

  /// Directory of `path`'s parent: ensures it exists (mkdir -p) and
  /// returns its inode; dirties nothing when already present.
  Ino ensure_parent(const std::string& path);
  /// The block holding a directory's entries.
  BlockNo dir_block(Ino dir_ino) const;
  static std::string parent_of(const std::string& path);

  BlockNo inode_block(Ino ino) const;
  BlockNo table_inode_block(Ino ino) const;
  BlockNo bitmap_block_for(BlockNo b) const;
  /// Allocate one block at/after `goal` (wrapping); dirties the bitmap.
  BlockNo allocate_block(BlockNo goal);
  void free_block(BlockNo b);
  void extend_to(Inode& node, Ino ino, std::uint64_t new_block_count,
                 BlockNo goal);
  /// Charge indirect metadata blocks when the map grows past thresholds.
  void charge_indirect(Inode& node, Ino ino);
  /// Fill runs_ with the physically-contiguous runs of the logical blocks
  /// [first_lb, last_lb] of `node`.
  void collect_runs(const Inode& node, std::uint64_t first_lb,
                    std::uint64_t last_lb);

  block::BufferCache& cache_;
  FsConfig cfg_;
  std::uint64_t bitmap_blocks_ = 0;
  BlockNo inode_bitmap_block_ = 0;
  BlockNo inode_table_start_ = 0;
  BlockNo data_start_ = 0;
  BlockNo root_dir_block_ = 0;
  std::uint64_t free_blocks_ = 0;
  std::vector<bool> used_;  // per-block allocation bitmap (in-memory copy)
  std::map<std::string, Ino> dir_;   // flat root directory
  std::map<Ino, Inode> inodes_;
  Ino next_ino_ = 1;
  BlockNo alloc_cursor_ = 0;
  FsStats stats_;
  bool formatted_ = false;
  std::vector<block::BufferCache::Range> runs_;  // collect_runs' output
};

}  // namespace ess::fs
