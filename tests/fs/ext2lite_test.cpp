#include "fs/ext2lite.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <string>

#include "util/rng.hpp"

namespace ess::fs {
namespace {

class Ext2LiteTest : public ::testing::Test {
 protected:
  Ext2LiteTest()
      : drive_(engine_, disk::ServiceModel(disk::beowulf_geometry(),
                                           disk::ServiceParams{})),
        drv_(drive_, &ring_),
        cache_(drv_, block::CacheConfig{}) {}

  Ext2Lite make(FsConfig cfg = default_cfg()) {
    Ext2Lite fs(cache_, cfg);
    fs.mkfs();
    return fs;
  }

  static FsConfig default_cfg() {
    FsConfig cfg;
    cfg.total_blocks = 100'000;
    return cfg;
  }

  std::vector<trace::Record> physical() {
    engine_.run();
    return ring_.drain(1000000);
  }

  /// Runs a read to completion and returns whether it waited: a read
  /// either returns false and never calls `done`, or returns true and
  /// calls it exactly once.
  bool read_waits(Ext2Lite& fs, Ino ino, std::uint64_t off,
                  std::uint64_t len) {
    int fired = 0;
    const bool waits = fs.read(ino, off, len, [&fired] { ++fired; });
    engine_.run();
    EXPECT_EQ(fired, waits ? 1 : 0);
    return waits;
  }

  sim::Engine engine_;
  disk::Drive drive_;
  trace::RingBuffer ring_{1000000};
  driver::IdeDriver drv_;
  block::BufferCache cache_;
};

TEST_F(Ext2LiteTest, CreateLookupUnlink) {
  auto fs = make();
  const Ino ino = fs.create("/a.txt");
  EXPECT_EQ(fs.lookup("/a.txt"), std::optional<Ino>(ino));
  EXPECT_FALSE(fs.lookup("/missing").has_value());
  fs.unlink("/a.txt");
  EXPECT_FALSE(fs.lookup("/a.txt").has_value());
}

TEST_F(Ext2LiteTest, DuplicateCreateThrows) {
  auto fs = make();
  fs.create("/a");
  EXPECT_THROW(fs.create("/a"), std::runtime_error);
}

TEST_F(Ext2LiteTest, UnlinkMissingThrows) {
  auto fs = make();
  EXPECT_THROW(fs.unlink("/nope"), std::runtime_error);
}

TEST_F(Ext2LiteTest, WriteExtendsSize) {
  auto fs = make();
  const Ino ino = fs.create("/f");
  EXPECT_EQ(fs.size_of(ino), 0u);
  fs.write(ino, 0, 3000);
  EXPECT_EQ(fs.size_of(ino), 3000u);
  fs.append(ino, 500);
  EXPECT_EQ(fs.size_of(ino), 3500u);
  fs.write(ino, 100, 10);  // overwrite does not extend
  EXPECT_EQ(fs.size_of(ino), 3500u);
  EXPECT_EQ(fs.stat(ino).block_count, 4u);  // ceil(3500/1024)
}

TEST_F(Ext2LiteTest, SequentialWritesAllocateContiguously) {
  auto fs = make();
  const Ino ino = fs.create("/f");
  fs.write(ino, 0, 8 * 1024);
  EXPECT_TRUE(fs.stat(ino).contiguous);
}

TEST_F(Ext2LiteTest, GoalPlacementHonored) {
  auto fs = make();
  const Ino ino = fs.create("/goal", 50'000);
  fs.write(ino, 0, 1024);
  const auto info = fs.stat(ino);
  EXPECT_GE(info.first_block, 49'000u);
  EXPECT_LE(info.first_block, 51'000u);
}

TEST_F(Ext2LiteTest, GoalFileGetsInodeInItsBlockGroup) {
  FsConfig cfg = default_cfg();
  cfg.inode_group_offset = 8;
  auto fs = make(cfg);
  const Ino ino = fs.create("/grouped", 60'000);
  fs.append(ino, 100);
  fs.sync();
  bool saw_inode_block_write = false;
  for (const auto& r : physical()) {
    // inode block at block 59,992 = sector 119,984
    if (r.is_write && r.sector == (60'000u - 8) * 2) {
      saw_inode_block_write = true;
    }
  }
  EXPECT_TRUE(saw_inode_block_write);
}

TEST_F(Ext2LiteTest, CreateContiguousIsContiguousAtGoal) {
  auto fs = make();
  const Ino ino = fs.create_contiguous("/img", 64 * 1024, 30'000);
  const auto info = fs.stat(ino);
  EXPECT_TRUE(info.contiguous);
  EXPECT_EQ(info.first_block, 30'000u);
  EXPECT_EQ(info.block_count, 64u);
  EXPECT_EQ(info.size_bytes, 64u * 1024);
}

TEST_F(Ext2LiteTest, CreateContiguousConflictThrows) {
  auto fs = make();
  fs.create_contiguous("/a", 16 * 1024, 30'000);
  EXPECT_THROW(fs.create_contiguous("/b", 16 * 1024, 30'008),
               std::runtime_error);
}

TEST_F(Ext2LiteTest, CreateContiguousMakesParentsOutsideTheRun) {
  // The parent directory's block used to be allocated at the cursor after
  // the run at data_start() was found free, so inside the run: a block
  // claimed twice, and a free count one too low. Now the directory takes
  // data_start() first and the search (stride 1024, as staging searches)
  // moves on.
  auto fs = make();
  const std::uint64_t free_before = fs.free_blocks();
  const Ino ino =
      fs.create_contiguous("/d/x", 64 * 1024, fs.data_start(), 1024);
  EXPECT_TRUE(fs.fsck().empty());
  const auto info = fs.stat(ino);
  EXPECT_TRUE(info.contiguous);
  EXPECT_EQ(info.first_block, fs.data_start() + 1024);
  EXPECT_EQ(info.block_count, 64u);
  // The run, the directory's block and one indirect block.
  EXPECT_EQ(fs.free_blocks(), free_before - 64 - 1 - 1);
}

/// The probe loop staging ran before create_contiguous searched by
/// itself: try goal, goal + 1024, ... until one does not throw.
Ino old_probe_loop(Ext2Lite& fs, const std::string& path, std::uint64_t size,
                   BlockNo goal) {
  for (BlockNo probe = goal;; probe += 1024) {
    try {
      return fs.create_contiguous(path, size, probe);
    } catch (const std::runtime_error&) {
      if (probe > fs.config().total_blocks) throw;
    }
  }
}

TEST_F(Ext2LiteTest, ContiguousSearchPlacesLikeTheOldProbeLoop) {
  auto searched = make();
  auto probed = make();
  Rng rng(2024);
  int placed = 0;
  int refused = 0;
  for (int i = 0; i < 160; ++i) {
    const std::string path = "/f" + std::to_string(i);
    if (rng.chance(0.25)) {
      // Written files interleave indirect blocks and fragment the disk.
      const std::uint64_t bytes = 1 + rng.uniform(100 * 1024);
      if (searched.free_blocks() < 200) continue;
      searched.write(searched.create(path), 0, bytes);
      probed.write(probed.create(path), 0, bytes);
      continue;
    }
    const std::uint64_t size = 1 + rng.uniform(1500 * 1024);
    // Goals below data_start() are raised to it.
    const BlockNo goal = i % 8 == 0 ? 5 : rng.uniform(100'000);
    std::optional<BlockNo> a;
    std::optional<BlockNo> b;
    try {
      a = searched.stat(searched.create_contiguous(path, size, goal, 1024))
              .first_block;
    } catch (const std::runtime_error&) {
    }
    try {
      b = probed.stat(old_probe_loop(probed, path, size, goal)).first_block;
    } catch (const std::runtime_error&) {
    }
    EXPECT_EQ(a, b) << path << " goal " << goal << " size " << size;
    ++(a ? placed : refused);
  }
  EXPECT_GT(placed, 20);
  EXPECT_GT(refused, 5);  // the disk fills: both refuse the same files
  EXPECT_EQ(searched.free_blocks(), probed.free_blocks());
  EXPECT_TRUE(searched.fsck().empty());
}

TEST_F(Ext2LiteTest, ReadCompletesAndCountsBytes) {
  auto fs = make();
  const Ino ino = fs.create("/f");
  fs.write(ino, 0, 10'000);
  fs.sync();
  physical();
  EXPECT_FALSE(read_waits(fs, ino, 0, 5'000));  // the blocks are resident
  EXPECT_EQ(fs.stats().bytes_read, 5'000u);
}

TEST_F(Ext2LiteTest, ReadPastEofTruncates) {
  auto fs = make();
  const Ino ino = fs.create("/f");
  fs.write(ino, 0, 1000);
  read_waits(fs, ino, 900, 5000);
  EXPECT_EQ(fs.stats().bytes_read, 100u);
}

TEST_F(Ext2LiteTest, ReadBeyondEofCompletesImmediately) {
  auto fs = make();
  const Ino ino = fs.create("/f");
  bool done = false;
  EXPECT_FALSE(fs.read(ino, 100, 10, [&] { done = true; }));
  EXPECT_FALSE(done);
}

TEST_F(Ext2LiteTest, ReadThatNeedsNoIoReturnsFalseWithoutCallingDone) {
  auto fs = make();
  const Ino ino = fs.create("/f");
  fs.write(ino, 0, 4096);  // resident (dirty) in the cache
  int fired = 0;
  const auto count = [&fired] { ++fired; };
  EXPECT_FALSE(fs.read(ino, 0, 4096, count));    // a hit
  EXPECT_FALSE(fs.read(ino, 4096, 100, count));  // at EOF
  EXPECT_FALSE(fs.read(ino, 9000, 100, count));  // past EOF
  EXPECT_FALSE(fs.read(ino, 100, 0, count));     // len == 0
  for (const auto& r : physical()) EXPECT_TRUE(r.is_write);
  EXPECT_EQ(fired, 0);
}

TEST_F(Ext2LiteTest, ReadAcrossAnIndirectBlockFiresOnce) {
  auto fs = make();
  const Ino ino = fs.create("/f");
  // The indirect block is allocated after the 13th data block, so the
  // file's 20 blocks lie in two runs: 13, the indirect block, then 7.
  fs.write(ino, 0, 20 * 1024);
  fs.sync();
  physical();
  const auto info = fs.stat(ino);
  ASSERT_FALSE(info.contiguous);
  for (BlockNo b = info.first_block; b <= info.first_block + 20; ++b) {
    cache_.invalidate(b);
  }
  int fired = 0;
  EXPECT_TRUE(fs.read(ino, 0, 20 * 1024, [&fired] { ++fired; }));
  std::vector<std::uint32_t> reads;
  for (const auto& r : physical()) {
    if (!r.is_write) reads.push_back(r.size_bytes);
  }
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(reads, (std::vector<std::uint32_t>{13 * 1024, 7 * 1024}));
}

TEST_F(Ext2LiteTest, AtimeUpdatesDirtyInode) {
  FsConfig with_atime = default_cfg();

  auto fs = make(with_atime);
  const Ino ino = fs.create("/f");
  fs.write(ino, 0, 1024);
  fs.sync();
  physical();
  fs.read(ino, 0, 1024, [] {});
  engine_.run();
  EXPECT_GT(cache_.dirty_blocks(), 0u);  // the inode block is dirty again
}

TEST_F(Ext2LiteTest, SequentialReadsTriggerReadAheadGrowth) {
  auto fs = make();
  const Ino ino = fs.create_contiguous("/f", 200 * 1024, 40'000);
  fs.sync();
  physical();
  // Drop the file's blocks from the cache so the reads go to disk.
  const auto info = fs.stat(ino);
  ASSERT_TRUE(info.contiguous);
  for (std::uint64_t i = 0; i < info.block_count; ++i) {
    cache_.invalidate(info.first_block + i);
  }
  std::uint32_t max_read = 0;
  for (std::uint64_t off = 0; off + 4096 <= 200 * 1024; off += 4096) {
    fs.read(ino, off, 4096, [] {});
  }
  engine_.run();
  for (const auto& r : physical()) {
    if (!r.is_write) max_read = std::max(max_read, r.size_bytes);
  }
  // The window should have grown well past the 4 KB request size.
  EXPECT_GE(max_read, 8u * 1024);
}

TEST_F(Ext2LiteTest, UnlinkFreesBlocks) {
  auto fs = make();
  const auto before = fs.free_blocks();
  const Ino ino = fs.create("/f");
  fs.write(ino, 0, 50 * 1024);
  EXPECT_LT(fs.free_blocks(), before);
  fs.unlink("/f");
  EXPECT_EQ(fs.free_blocks(), before);
}

TEST_F(Ext2LiteTest, IndirectBlocksChargedForLargeFiles) {
  auto fs = make();
  const auto before = fs.free_blocks();
  const Ino ino = fs.create("/big");
  fs.write(ino, 0, 20 * 1024);  // 20 blocks > 12 direct
  const auto used = before - fs.free_blocks();
  EXPECT_EQ(used, 21u);  // 20 data + 1 indirect
}

TEST_F(Ext2LiteTest, OutOfInodesThrows) {
  FsConfig cfg = default_cfg();
  cfg.inode_count = 3;
  auto fs = make(cfg);
  fs.create("/a");
  fs.create("/b");
  EXPECT_THROW(fs.create("/c"), std::runtime_error);
}

TEST_F(Ext2LiteTest, SyncWritesSuperblock) {
  auto fs = make();
  physical();  // drop setup traffic
  fs.sync();
  bool saw_superblock = false;
  for (const auto& r : physical()) {
    if (r.is_write && r.sector == 2) saw_superblock = true;  // block 1
  }
  EXPECT_TRUE(saw_superblock);
}

TEST_F(Ext2LiteTest, SpreadInodesSeparateInodeBlocks) {
  FsConfig cfg = default_cfg();
  cfg.spread_inodes = true;
  cfg.inode_spread_stride = 16;
  auto fs = make(cfg);
  const Ino a = fs.create("/a");
  const Ino b = fs.create("/b");
  fs.append(a, 10);
  fs.append(b, 10);
  fs.sync();
  std::set<std::uint32_t> inode_sectors;
  for (const auto& r : physical()) {
    const auto block = r.sector / 2;
    if (r.is_write && block >= fs.inode_table_start() &&
        block < fs.data_start()) {
      inode_sectors.insert(r.sector);
    }
  }
  EXPECT_GE(inode_sectors.size(), 2u);
}

TEST_F(Ext2LiteTest, TooSmallPartitionRejected) {
  FsConfig cfg;
  cfg.total_blocks = 10;
  EXPECT_THROW(Ext2Lite(cache_, cfg), std::invalid_argument);
}

TEST_F(Ext2LiteTest, DoubleMkfsThrows) {
  auto fs = make();
  EXPECT_THROW(fs.mkfs(), std::logic_error);
}

}  // namespace
}  // namespace ess::fs
