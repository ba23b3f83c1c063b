// pdes::Fabric on the serial reference machine (one shard, inline pool):
// every rank on one engine, as a single-host cluster run sees it. The
// cross-shard versions of these cases are in window_machine_test.cpp.
#include "pdes/fabric.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "pdes/machine.hpp"
#include "workload/builder.hpp"

namespace ess::pdes {
namespace {

Machine serial_machine(int nodes) {
  MachineConfig cfg;
  cfg.nodes = nodes;
  cfg.shards = 1;
  cfg.jobs = 1;
  cfg.node.daemons.enabled = false;
  return Machine(cfg);
}

workload::OpTrace pingper(int peer, bool initiator) {
  workload::OpTraceBuilder b(initiator ? "ping" : "pong");
  b.compute(msec(10));
  if (initiator) {
    b.send(peer, 4096, 7);
    b.recv(peer, 8);
  } else {
    b.recv(peer, 7);
    b.send(peer, 4096, 8);
  }
  b.compute(msec(10));
  return std::move(b).build();
}

TEST(Fabric, PingPongCompletes) {
  Machine m = serial_machine(2);
  m.fabric().set_world_size(2);
  m.spawn_rank(0, pingper(1, true), 0);
  m.spawn_rank(1, pingper(0, false), 1);
  EXPECT_TRUE(m.run_until_all_done(sec(100)));
  EXPECT_EQ(m.fabric().stats().sends, 2u);
  EXPECT_EQ(m.fabric().stats().recvs, 2u);
  EXPECT_EQ(m.fabric().stats().bytes, 8192u);
}

TEST(Fabric, TaggedRecvMatchesCorrectMessage) {
  Machine m = serial_machine(2);
  m.fabric().set_world_size(2);
  workload::OpTraceBuilder sender("s"), receiver("r");
  sender.send(1, 100, /*tag=*/5);
  sender.send(1, 100, /*tag=*/6);
  // Receive in the opposite order: tag matching must hold.
  receiver.recv(0, 6);
  receiver.recv(0, 5);
  m.spawn_rank(0, std::move(sender).build(), 0);
  m.spawn_rank(1, std::move(receiver).build(), 1);
  EXPECT_TRUE(m.run_until_all_done(sec(100)));
  EXPECT_EQ(m.fabric().stats().recvs, 2u);
}

TEST(Fabric, BarrierSynchronizesSkewedRanks) {
  Machine m = serial_machine(3);
  m.fabric().set_world_size(3);
  // Rank i computes i + 1 seconds, then hits the barrier, then finishes.
  std::vector<mm::Pid> pids;
  for (int r = 0; r < 3; ++r) {
    workload::OpTraceBuilder b("skew");
    b.compute(sec(static_cast<std::uint64_t>(r) + 1));
    b.barrier();
    b.compute(msec(1));
    pids.push_back(m.spawn_rank(r, std::move(b).build(), r));
  }
  const SimTime t0 = m.now();
  ASSERT_TRUE(m.run_until_all_done(sec(100)));
  // No rank finishes before the slowest (3 s) reaches the barrier.
  for (int r = 0; r < 3; ++r) {
    const auto& p = m.node(r).process(pids[static_cast<std::size_t>(r)]);
    EXPECT_GE(p.finish_time - t0, sec(3));
  }
  EXPECT_EQ(m.fabric().stats().barriers_completed, 1u);
}

}  // namespace
}  // namespace ess::pdes
