#include <gtest/gtest.h>

#include <vector>

#include "disk/drive.hpp"

namespace ess::disk {
namespace {

Request req(std::uint64_t sector, std::uint32_t count, Dir dir) {
  Request r;
  r.sector = sector;
  r.sector_count = count;
  r.dir = dir;
  return r;
}

class MergeTest : public ::testing::Test {
 protected:
  sim::Engine engine;
  Drive drive{engine, ServiceModel(beowulf_geometry(), ServiceParams{}),
              SchedulerKind::kElevator, /*max_merge_sectors=*/64};
};

TEST_F(MergeTest, BackMergeAbsorbsAdjacentRequest) {
  // First request goes in-flight immediately; queue two adjacent ones.
  drive.submit(req(500'000, 2, Dir::kWrite));  // in flight
  int completions = 0;
  std::uint32_t serviced_count = 0;
  drive.submit(req(1000, 4, Dir::kWrite), [&](const Request& r) {
    ++completions;
    serviced_count = r.sector_count;
  });
  drive.submit(req(1004, 4, Dir::kWrite), [&](const Request&) {
    ++completions;
  });
  EXPECT_EQ(drive.stats().merged, 1u);
  engine.run();
  EXPECT_EQ(completions, 2);       // both callers complete
  EXPECT_EQ(serviced_count, 8u);   // as a single 8-sector operation
}

TEST_F(MergeTest, FrontMergeExtendsDownward) {
  drive.submit(req(500'000, 2, Dir::kWrite));
  std::uint64_t serviced_sector = 0;
  drive.submit(req(1004, 4, Dir::kRead), [&](const Request& r) {
    serviced_sector = r.sector;
  });
  drive.submit(req(1000, 4, Dir::kRead));
  EXPECT_EQ(drive.stats().merged, 1u);
  engine.run();
  EXPECT_EQ(serviced_sector, 1000u);  // the merged request starts lower
}

TEST_F(MergeTest, DifferentDirectionsDoNotMerge) {
  drive.submit(req(500'000, 2, Dir::kWrite));
  drive.submit(req(1000, 4, Dir::kWrite));
  drive.submit(req(1004, 4, Dir::kRead));
  EXPECT_EQ(drive.stats().merged, 0u);
  engine.run();
}

TEST_F(MergeTest, NonAdjacentDoNotMerge) {
  drive.submit(req(500'000, 2, Dir::kWrite));
  drive.submit(req(1000, 4, Dir::kWrite));
  drive.submit(req(1006, 4, Dir::kWrite));  // 2-sector gap
  EXPECT_EQ(drive.stats().merged, 0u);
  engine.run();
}

TEST_F(MergeTest, MergeCapRespected) {
  sim::Engine e2;
  Drive small(e2, ServiceModel(beowulf_geometry(), ServiceParams{}),
              SchedulerKind::kElevator, /*max_merge_sectors=*/6);
  small.submit(req(500'000, 2, Dir::kWrite));
  small.submit(req(1000, 4, Dir::kWrite));
  small.submit(req(1004, 4, Dir::kWrite));  // 4+4 > 6: no merge
  EXPECT_EQ(small.stats().merged, 0u);
  e2.run();
}

TEST_F(MergeTest, MergingDisabledByDefault) {
  sim::Engine e2;
  Drive plain(e2, ServiceModel(beowulf_geometry(), ServiceParams{}));
  plain.submit(req(500'000, 2, Dir::kWrite));
  plain.submit(req(1000, 4, Dir::kWrite));
  plain.submit(req(1004, 4, Dir::kWrite));
  EXPECT_EQ(plain.stats().merged, 0u);
  e2.run();
  EXPECT_EQ(plain.stats().requests, 3u);
}

TEST_F(MergeTest, FifoSchedulerDoesNotSupportMerging) {
  // try_merge has a conservative default: FIFO leaves requests separate
  // even when a merge budget is configured.
  sim::Engine e2;
  Drive fifo(e2, ServiceModel(beowulf_geometry(), ServiceParams{}),
             SchedulerKind::kFifo, /*max_merge_sectors=*/64);
  fifo.submit(req(500'000, 2, Dir::kWrite));
  fifo.submit(req(1000, 4, Dir::kWrite));
  fifo.submit(req(1004, 4, Dir::kWrite));
  EXPECT_EQ(fifo.stats().merged, 0u);
  e2.run();
  EXPECT_EQ(fifo.stats().requests, 3u);
}

TEST_F(MergeTest, ChainOfAdjacentRequestsCollapses) {
  drive.submit(req(500'000, 2, Dir::kWrite));
  for (int i = 0; i < 8; ++i) {
    drive.submit(req(2000 + static_cast<std::uint64_t>(i) * 2, 2,
                     Dir::kWrite));
  }
  EXPECT_EQ(drive.stats().merged, 7u);  // all absorbed into one
  engine.run();
  EXPECT_EQ(drive.stats().requests, 2u);  // the in-flight one + the merged
}

TEST_F(MergeTest, AbsorbedCompletionsFireInSubmissionOrder) {
  drive.submit(req(500'000, 2, Dir::kWrite));
  std::vector<int> order;
  // The host has no completion of its own; four absorbed ones do.
  drive.submit(req(3000, 2, Dir::kWrite));
  for (int i = 1; i <= 4; ++i) {
    drive.submit(req(3000 + static_cast<std::uint64_t>(i) * 2, 2, Dir::kWrite),
                 [&order, i](const Request& r) {
                   EXPECT_EQ(r.sector_count, 10u);
                   order.push_back(i);
                 });
  }
  EXPECT_EQ(drive.stats().merged, 4u);
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

}  // namespace
}  // namespace ess::disk
