// Property test: VM invariants under randomized touch streams from
// multiple processes competing for frames.
//
//  * every touch completes exactly once;
//  * resident pages never exceed the frame pool;
//  * swap slots in use never exceed distinct dirty-evicted pages;
//  * destroying an address space returns all its frames and slots;
//  * the same seed reproduces the same fault counts (determinism).
#include <gtest/gtest.h>

#include "mm/vm.hpp"
#include "util/rng.hpp"

namespace ess::mm {
namespace {

struct Rig {
  sim::Engine engine;
  disk::Drive drive{engine, disk::ServiceModel(disk::beowulf_geometry(),
                                               disk::ServiceParams{})};
  trace::RingBuffer ring{1 << 20};
  driver::IdeDriver drv{drive, &ring};
  block::BufferCache cache{drv, block::CacheConfig{}};
  FramePool frames{96};
  SwapManager swap{drv, 800'000, 2048};
  Vm vm{frames, swap, cache};
};

VmStats run_sequence(std::uint64_t seed) {
  Rig rig;
  constexpr int kProcs = 3;
  constexpr std::uint64_t kPages = 64;  // per process; 192 total vs 96 frames
  for (Pid pid = 1; pid <= kProcs; ++pid) {
    rig.vm.create_address_space(
        pid, {Segment{0, 8, true, 10'000 + pid * 1000},
              Segment{8, kPages - 8, false, 0}});
  }
  Rng rng(seed);
  int issued = 0, completed = 0;
  for (int op = 0; op < 1500; ++op) {
    const Pid pid = 1 + static_cast<Pid>(rng.uniform(kProcs));
    const VPage page = rng.uniform(kPages);
    ++issued;
    if (rig.vm.touch(pid, page, rng.chance(0.5), [&] { ++completed; })) {
      ++completed;
    }
    if (op % 16 == 0) rig.engine.run();
    EXPECT_LE(rig.frames.used(), rig.frames.total());
  }
  rig.engine.run();
  EXPECT_EQ(completed, issued);

  // Slots in use are bounded by total pages that could have been dirtied.
  EXPECT_LE(rig.swap.slots_used(), kProcs * kPages);

  // Destroying everything returns every resource.
  for (Pid pid = 1; pid <= kProcs; ++pid) rig.vm.destroy_address_space(pid);
  EXPECT_EQ(rig.frames.used(), 0u);
  EXPECT_EQ(rig.swap.slots_used(), 0u);
  return rig.vm.stats();
}

class VmFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(VmFuzzTest, InvariantsHoldUnderRandomTouchStreams) {
  const auto stats = run_sequence(GetParam());
  EXPECT_EQ(stats.touches, 1500u);
  // Heavy overcommit (2x) must cause faulting activity.
  EXPECT_GT(stats.minor_faults + stats.major_faults, 100u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, VmFuzzTest,
                         ::testing::Values(101, 202, 303, 404, 505, 606));

TEST(VmFuzz, DeterministicAcrossRuns) {
  const auto a = run_sequence(777);
  const auto b = run_sequence(777);
  EXPECT_EQ(a.major_faults, b.major_faults);
  EXPECT_EQ(a.minor_faults, b.minor_faults);
  EXPECT_EQ(a.swap_ins, b.swap_ins);
  EXPECT_EQ(a.swap_outs, b.swap_outs);
  EXPECT_EQ(a.evictions, b.evictions);
}

}  // namespace
}  // namespace ess::mm
