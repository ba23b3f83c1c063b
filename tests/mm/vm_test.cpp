#include "mm/vm.hpp"

#include <gtest/gtest.h>

namespace ess::mm {
namespace {

class VmTest : public ::testing::Test {
 protected:
  VmTest()
      : drive_(engine_, disk::ServiceModel(disk::beowulf_geometry(),
                                           disk::ServiceParams{})),
        drv_(drive_, &ring_),
        cache_(drv_, block::CacheConfig{}),
        frames_(kFrames),
        swap_(drv_, 800'000, 256),
        vm_(frames_, swap_, cache_) {}

  static constexpr std::uint32_t kFrames = 16;

  /// Touch and run the engine until completion; returns the fault kind.
  FaultKind touch(Pid pid, VPage page, bool write) {
    bool resumed = false;
    const auto now = vm_.touch(pid, page, write, [&] { resumed = true; });
    engine_.run();
    EXPECT_NE(now.has_value(), resumed);
    return now.value_or(FaultKind::kMajor);
  }

  /// Physical requests drained from the trace ring.
  std::vector<trace::Record> physical() {
    engine_.run();
    return ring_.drain(100000);
  }

  sim::Engine engine_;
  disk::Drive drive_;
  trace::RingBuffer ring_{100000};
  driver::IdeDriver drv_;
  block::BufferCache cache_;
  FramePool frames_;
  SwapManager swap_;
  Vm vm_;
};

TEST_F(VmTest, AnonymousFirstTouchIsZeroFillMinor) {
  vm_.create_address_space(1, {Segment{0, 8, false, 0}});
  EXPECT_EQ(touch(1, 0, false), FaultKind::kMinor);
  EXPECT_TRUE(physical().empty());  // no disk I/O for zero-fill
  EXPECT_EQ(vm_.stats().minor_faults, 1u);
}

TEST_F(VmTest, ResidentTouchIsNoFault) {
  vm_.create_address_space(1, {Segment{0, 8, false, 0}});
  touch(1, 3, true);
  EXPECT_EQ(touch(1, 3, false), FaultKind::kNone);
  EXPECT_EQ(vm_.stats().touches, 2u);
}

TEST_F(VmTest, FileBackedFaultReadsOne4KRequest) {
  vm_.create_address_space(1, {Segment{0, 8, true, 5000}});
  EXPECT_EQ(touch(1, 2, false), FaultKind::kMajor);
  const auto reqs = physical();
  ASSERT_EQ(reqs.size(), 1u);
  EXPECT_EQ(reqs[0].size_bytes, 4096u);
  EXPECT_EQ(reqs[0].is_write, 0);
  // Page 2 of the segment = file blocks 5008..5011 = sector 10016.
  EXPECT_EQ(reqs[0].sector, (5000u + 2 * 4) * 2);
  EXPECT_EQ(vm_.stats().file_page_ins, 1u);
}

TEST_F(VmTest, FileBackedFaultHitsWarmCacheWithoutIo) {
  EXPECT_TRUE(cache_.fetch(5000, 4, [] {}));
  engine_.run();
  ring_.drain(100000);
  vm_.create_address_space(1, {Segment{0, 8, true, 5000}});
  EXPECT_EQ(touch(1, 0, false), FaultKind::kMajor);
  EXPECT_TRUE(physical().empty());  // satisfied from the buffer cache
}

TEST_F(VmTest, DirtyEvictionSwapsOutThenBackIn) {
  vm_.create_address_space(1, {Segment{0, 64, false, 0}});
  // Dirty more pages than there are frames.
  for (VPage p = 0; p < kFrames + 4; ++p) touch(1, p, true);
  EXPECT_GT(vm_.stats().swap_outs, 0u);
  const auto reqs1 = physical();
  bool saw_swap_write = false;
  for (const auto& r : reqs1) {
    if (r.is_write && r.size_bytes == 4096) saw_swap_write = true;
  }
  EXPECT_TRUE(saw_swap_write);

  // Touch an evicted page: swap-in (4 KB read).
  EXPECT_EQ(touch(1, 0, false), FaultKind::kMajor);
  EXPECT_GT(vm_.stats().swap_ins, 0u);
  const auto reqs2 = physical();
  ASSERT_FALSE(reqs2.empty());
  EXPECT_EQ(reqs2.back().size_bytes, 4096u);
  EXPECT_EQ(reqs2.back().is_write, 0);
}

TEST_F(VmTest, CleanPagesDropWithoutSwapWrite) {
  vm_.create_address_space(1, {Segment{0, 64, false, 0}});
  // Read-only zero-fill touches: never dirty.
  for (VPage p = 0; p < kFrames + 8; ++p) touch(1, p, false);
  EXPECT_EQ(vm_.stats().swap_outs, 0u);
  EXPECT_GT(vm_.stats().evictions, 0u);
  // Re-touch an evicted page: zero-fill again, still no I/O.
  EXPECT_EQ(touch(1, 0, false), FaultKind::kMinor);
  EXPECT_TRUE(physical().empty());
}

TEST_F(VmTest, ResidentPagesCountsPresentOnly) {
  vm_.create_address_space(1, {Segment{0, 8, false, 0}});
  EXPECT_EQ(vm_.resident_pages(1), 0u);
  touch(1, 0, true);
  touch(1, 1, true);
  EXPECT_EQ(vm_.resident_pages(1), 2u);
}

TEST_F(VmTest, TouchOutsideSegmentsThrows) {
  vm_.create_address_space(1, {Segment{0, 4, false, 0}});
  EXPECT_THROW(vm_.touch(1, 100, false, [] {}),
               std::out_of_range);
}

TEST_F(VmTest, DestroyReleasesFramesAndSwap) {
  vm_.create_address_space(1, {Segment{0, 64, false, 0}});
  for (VPage p = 0; p < kFrames + 4; ++p) touch(1, p, true);
  const auto used_before = swap_.slots_used();
  EXPECT_GT(used_before, 0u);
  vm_.destroy_address_space(1);
  EXPECT_EQ(frames_.used(), 0u);
  EXPECT_EQ(swap_.slots_used(), 0u);
}

TEST_F(VmTest, DestroyReleasesInVpageOrderWhileAnotherProcessFaults) {
  vm_.create_address_space(1, {Segment{0, 64, false, 0}});
  vm_.create_address_space(2, {Segment{0, 64, false, 0}});
  // Process 1 dirties 20 pages over 16 frames, and process 2 takes two
  // more frames: process 1's pages 0..5 go to swap slots 0..5, its pages
  // 6..19 keep frames, and no frame is free.
  for (VPage p = 0; p < kFrames + 4; ++p) touch(1, p, true);
  touch(2, 0, true);
  touch(2, 1, true);
  ASSERT_EQ(frames_.free(), 0u);
  ASSERT_EQ(swap_.slots_used(), 6u);
  std::vector<FrameNo> by_vpage;  // process 1's frames, ascending vpage
  for (VPage p = 0; p < 64; ++p) {
    for (FrameNo f = 0; f < kFrames; ++f) {
      const Frame& fr = frames_.frame(f);
      if (fr.in_use && fr.pid == 1 && fr.vpage == p) by_vpage.push_back(f);
    }
  }
  ASSERT_EQ(by_vpage.size(), 14u);

  vm_.destroy_address_space(1);
  EXPECT_EQ(frames_.free(), 14u);
  EXPECT_EQ(swap_.slots_used(), 0u);
  ring_.drain(100000);

  // The frames went back in ascending vpage order onto the LIFO free
  // list, so process 2's next faults take them in descending vpage order.
  for (std::size_t i = 0; i < by_vpage.size(); ++i) {
    const VPage p = 2 + i;
    EXPECT_EQ(touch(2, p, true), FaultKind::kMinor);
    const FrameNo want = by_vpage[by_vpage.size() - 1 - i];
    EXPECT_EQ(frames_.frame(want).pid, 2u) << "page " << p;
    EXPECT_EQ(frames_.frame(want).vpage, p) << "page " << p;
  }
  EXPECT_EQ(frames_.free(), 0u);
  EXPECT_TRUE(physical().empty());

  // The next eviction swaps process 2's victim out to the slot after the
  // last one handed out (6), not to a freed lower one: the slot search
  // resumes at its hint.
  touch(2, 16, true);
  EXPECT_EQ(swap_.slots_used(), 1u);
  const auto reqs = physical();
  ASSERT_EQ(reqs.size(), 1u);
  EXPECT_EQ(reqs[0].is_write, 1);
  EXPECT_EQ(reqs[0].sector, 800'000u + 6 * (kPageSize / 512));
}

TEST_F(VmTest, TwoProcessesCompeteForFrames) {
  vm_.create_address_space(1, {Segment{0, 32, false, 0}});
  vm_.create_address_space(2, {Segment{0, 32, false, 0}});
  for (VPage p = 0; p < kFrames; ++p) touch(1, p, true);
  // Process 2's touches evict process 1's pages.
  for (VPage p = 0; p < 8; ++p) touch(2, p, true);
  EXPECT_GT(vm_.stats().evictions, 0u);
  EXPECT_GT(vm_.resident_pages(2), 0u);
  EXPECT_LT(vm_.resident_pages(1), static_cast<std::uint64_t>(kFrames));
}

TEST_F(VmTest, MultipleSegmentsResolveCorrectly) {
  vm_.create_address_space(
      1, {Segment{0, 4, true, 9000}, Segment{4, 4, false, 0}});
  EXPECT_EQ(touch(1, 2, false), FaultKind::kMajor);  // file-backed
  EXPECT_EQ(touch(1, 5, false), FaultKind::kMinor);  // anonymous
}

}  // namespace
}  // namespace ess::mm
