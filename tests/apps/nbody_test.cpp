#include "apps/nbody/nbody_app.hpp"
#include "apps/nbody/octree.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "exec/thread_pool.hpp"

namespace ess::apps::nbody {
namespace {

std::vector<Body> plummer(int n, std::uint64_t seed) {
  NBodySim sim(n, seed);
  return sim.bodies();
}

TEST(Octree, RootCountsEveryBody) {
  const auto bodies = plummer(500, 1);
  Octree tree;
  tree.build(bodies);
  EXPECT_EQ(tree.root().count, 500);
}

TEST(Octree, TotalMassMatches) {
  const auto bodies = plummer(300, 2);
  Octree tree;
  tree.build(bodies);
  double mass = 0;
  for (const auto& b : bodies) mass += b.mass;
  // Root COM mass: leaves contribute via finalize only when internal, so
  // check via a two-body force consistency instead for leaves; for 300
  // bodies the root is internal.
  EXPECT_NEAR(tree.root().mass, mass, 1e-9);
}

TEST(Octree, NodeCountBounded) {
  const auto bodies = plummer(1000, 3);
  Octree tree;
  tree.build(bodies);
  EXPECT_GE(tree.node_count(), 1000u / 8);
  EXPECT_LE(tree.node_count(), 20'000u);
}

TEST(Octree, ThetaZeroMatchesDirectSummation) {
  // With theta = 0 no cell is ever accepted: the traversal enumerates
  // every other body exactly, so the result equals the O(N^2) sum.
  const auto bodies = plummer(64, 4);
  Octree tree;
  tree.build(bodies);
  std::uint64_t inter = 0;
  for (int i = 0; i < 64; ++i) {
    const Vec3 a = tree.acceleration(bodies, i, 0.0, 0.05, inter);
    Vec3 direct;
    for (int j = 0; j < 64; ++j) {
      if (j == i) continue;
      const Vec3 d = bodies[static_cast<std::size_t>(j)].pos -
                     bodies[static_cast<std::size_t>(i)].pos;
      const double r2 = d.norm2() + 0.05 * 0.05;
      const double inv_r = 1.0 / std::sqrt(r2);
      direct += d * (bodies[static_cast<std::size_t>(j)].mass * inv_r *
                     inv_r * inv_r);
    }
    EXPECT_NEAR(a.x, direct.x, 1e-9);
    EXPECT_NEAR(a.y, direct.y, 1e-9);
    EXPECT_NEAR(a.z, direct.z, 1e-9);
  }
  EXPECT_EQ(inter, 64u * 63u);
}

TEST(Octree, LargerThetaEvaluatesFewerInteractions) {
  const auto bodies = plummer(2048, 5);
  Octree tree;
  tree.build(bodies);
  auto count = [&](double theta) {
    std::uint64_t inter = 0;
    for (int i = 0; i < 2048; ++i) {
      tree.acceleration(bodies, i, theta, 0.05, inter);
    }
    return inter;
  };
  const auto exact = count(0.0);
  const auto coarse = count(0.8);
  const auto coarser = count(1.2);
  EXPECT_LT(coarse, exact);
  EXPECT_LT(coarser, coarse);
}

TEST(Octree, ApproximationErrorSmallForModestTheta) {
  const auto bodies = plummer(512, 6);
  Octree tree;
  tree.build(bodies);
  std::uint64_t inter = 0;
  double max_rel = 0;
  for (int i = 0; i < 512; ++i) {
    const Vec3 approx = tree.acceleration(bodies, i, 0.5, 0.05, inter);
    const Vec3 exact = tree.acceleration(bodies, i, 0.0, 0.05, inter);
    const double diff = std::sqrt((approx - exact).norm2());
    const double norm = std::sqrt(exact.norm2()) + 1e-12;
    max_rel = std::max(max_rel, diff / norm);
  }
  EXPECT_LT(max_rel, 0.15);  // theta=0.5 keeps force errors modest
}

TEST(NBodySim, MomentumApproximatelyConserved) {
  NBodySim sim(512, 7);
  const Vec3 p0 = sim.stats().momentum;
  for (int i = 0; i < 5; ++i) sim.step(0.01, 0.6, 0.05);
  const Vec3 p1 = sim.stats().momentum;
  // Tree forces are not exactly symmetric, but drift must stay small
  // relative to the typical momentum scale (bodies have mass 1/N, v~0.1).
  EXPECT_LT(std::sqrt((p1 - p0).norm2()), 0.05);
}

TEST(NBodySim, InteractionsAccumulate) {
  NBodySim sim(256, 8);
  const auto first = sim.step(0.01, 0.7, 0.05);
  EXPECT_GT(first, 0u);
  sim.step(0.01, 0.7, 0.05);
  EXPECT_GT(sim.total_interactions(), first);
}

TEST(NBodySim, EnergyStaysBounded) {
  NBodySim sim(256, 9);
  for (int i = 0; i < 10; ++i) sim.step(0.01, 0.7, 0.05);
  const auto st = sim.stats();
  EXPECT_TRUE(std::isfinite(st.kinetic));
  EXPECT_LT(st.max_speed, 100.0);  // no numerical explosion
}

TEST(NBodyApp, TraceHasCheckpointsAndFinalSnapshot) {
  NBodyConfig cfg;
  cfg.bodies = 512;
  cfg.steps = 8;
  cfg.checkpoint_every = 4;
  Rng rng(1);
  const auto result = run_nbody(cfg, 25.0, rng);
  EXPECT_GT(result.total_interactions, 0u);
  EXPECT_GT(result.modelled_compute, 0u);
  const auto& t = result.trace;
  EXPECT_EQ(t.app_name, "nbody");
  // 2 checkpoints of 2 KB + the final 16 KB snapshot.
  EXPECT_EQ(t.total_write_bytes(), 2u * 2048 + 16 * 1024);
  EXPECT_EQ(t.total_read_bytes(), 0u);  // a simulation with no input data
}

TEST(NBodyApp, DefaultConfigMatchesPaperScale) {
  const NBodyConfig cfg;
  EXPECT_EQ(cfg.bodies, 8192);  // "8K particles per processor"
}

struct ForceRun {
  std::vector<Body> bodies;
  std::vector<std::uint64_t> step_interactions;
  std::uint64_t total = 0;
};

ForceRun run_sim(exec::ThreadPool* pool) {
  NBodySim sim(1536, 11, pool);
  ForceRun r;
  for (int s = 0; s < 3; ++s) {
    r.step_interactions.push_back(sim.step(0.01, 0.6, 0.05));
  }
  r.bodies = sim.bodies();
  r.total = sim.total_interactions();
  return r;
}

TEST(NBodySim, ForcePassBitIdenticalAtAnyWorkerCount) {
  const ForceRun serial = run_sim(nullptr);
  for (const std::size_t workers : {0u, 1u, 2u, 3u, 8u}) {
    exec::ThreadPool pool(workers);
    const ForceRun r = run_sim(&pool);
    ASSERT_EQ(r.bodies.size(), serial.bodies.size());
    for (std::size_t i = 0; i < r.bodies.size(); ++i) {
      const Body& a = r.bodies[i];
      const Body& b = serial.bodies[i];
      EXPECT_EQ(std::memcmp(&a.pos, &b.pos, sizeof a.pos), 0) << i;
      EXPECT_EQ(std::memcmp(&a.vel, &b.vel, sizeof a.vel), 0) << i;
      EXPECT_EQ(std::memcmp(&a.acc, &b.acc, sizeof a.acc), 0) << i;
    }
    EXPECT_EQ(r.step_interactions, serial.step_interactions) << workers;
    EXPECT_EQ(r.total, serial.total) << workers;
  }
}

std::uint64_t fnv1a(std::uint64_t h, const void* p, std::size_t n) {
  const auto* bytes = static_cast<const unsigned char*>(p);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= bytes[i];
    h *= 1099511628211ull;
  }
  return h;
}

TEST(NBodySim, MatchesPinnedStackTraversalDigest) {
  // FNV-1a over the per-step interaction counts, then every body's
  // pos/vel/acc bytes. The constants were recorded from the explicit-stack
  // tree traversal that the flattened walk replaced: the walk must visit,
  // accept and sum in exactly the same order.
  NBodySim sim(2048, 3);
  std::uint64_t h = 1469598103934665603ull;
  for (int s = 0; s < 8; ++s) {
    const std::uint64_t count = sim.step(0.01, 0.6, 0.05);
    h = fnv1a(h, &count, sizeof count);
  }
  for (const Body& b : sim.bodies()) {
    h = fnv1a(h, &b.pos, sizeof b.pos);
    h = fnv1a(h, &b.vel, sizeof b.vel);
    h = fnv1a(h, &b.acc, sizeof b.acc);
  }
  EXPECT_EQ(sim.total_interactions(), 6630886u);
  EXPECT_EQ(h, 0x32a984998fd4e8f6ull);
}

class ThetaSweep : public ::testing::TestWithParam<double> {};

TEST_P(ThetaSweep, InteractionCountScalesSubQuadratically) {
  NBodySim sim(1024, 10);
  const auto inter = sim.step(0.01, GetParam(), 0.05);
  EXPECT_LT(inter, 1024ull * 1023ull);
  EXPECT_GT(inter, 1024u);
}

INSTANTIATE_TEST_SUITE_P(Thetas, ThetaSweep,
                         ::testing::Values(0.4, 0.6, 0.8, 1.0));

}  // namespace
}  // namespace ess::apps::nbody
