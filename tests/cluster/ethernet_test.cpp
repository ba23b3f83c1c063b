#include "cluster/ethernet.hpp"

#include <gtest/gtest.h>

namespace ess::cluster {
namespace {

TEST(Ethernet, TransferTimeMonotoneInBytes) {
  EthernetModel net;
  SimTime prev = 0;
  for (std::uint64_t bytes : {64u, 1024u, 16'384u, 262'144u}) {
    const auto t = net.transfer_time(bytes);
    EXPECT_GT(t, prev);
    prev = t;
  }
}

TEST(Ethernet, LatencyDominatesSmallMessages) {
  EthernetModel net;
  const auto t = net.transfer_time(1);
  EXPECT_GE(t, net.config().latency);
  EXPECT_LT(t, net.config().latency * 2);
}

TEST(Ethernet, BandwidthBoundsLargeTransfers) {
  EthernetConfig cfg;
  cfg.bandwidth_mbit = 10.0;
  cfg.channels = 2;
  EthernetModel net(cfg);
  // 1 MB over 20 Mbit/s (2 channels) ~ 0.44 s, plus overheads.
  const double secs = to_seconds(net.transfer_time(1'000'000));
  EXPECT_GT(secs, 0.4);
  EXPECT_LT(secs, 0.7);
}

TEST(Ethernet, DualChannelsFasterThanSingle) {
  EthernetConfig one;
  one.channels = 1;
  EthernetConfig two;
  two.channels = 2;
  EXPECT_LT(EthernetModel(two).transfer_time(100'000),
            EthernetModel(one).transfer_time(100'000));
}

TEST(Ethernet, BarrierScalesLogarithmically) {
  EthernetModel net;
  EXPECT_EQ(net.barrier_time(1), 0u);
  const auto b2 = net.barrier_time(2);
  const auto b16 = net.barrier_time(16);
  EXPECT_EQ(b16, b2 * 4);  // log2(16) rounds
}

}  // namespace
}  // namespace ess::cluster
