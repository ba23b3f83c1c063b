#include "apps/nbody/nbody_app.hpp"
#include "apps/nbody/octree.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <utility>
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

// The per-body flat walk the group walk replaced, kept as its oracle: an
// accepted entry interacts unless it is body i's own leaf and jumps past
// its subtree; a rejected one steps into it.
Vec3 walk_one(const Octree& tree, const std::vector<Body>& bodies, int i,
              double theta, double softening, std::uint64_t& interactions) {
  const Vec3 pi = bodies[static_cast<std::size_t>(i)].pos;
  Vec3 acc;
  const double theta2 = theta * theta;
  const double eps2 = softening * softening;
  const auto& walk = tree.walk();
  const int end = static_cast<int>(walk.size());
  for (int k = 0; k < end;) {
    const Octree::WalkEntry& e = walk[static_cast<std::size_t>(k)];
    const Vec3 d = e.com - pi;
    const double r2 = d.norm2();
    if (e.cell2 < theta2 * r2) {
      if (e.body != i) {
        const double rr2 = r2 + eps2;
        const double inv_r = 1.0 / std::sqrt(rr2);
        const double f = e.mass * inv_r * inv_r * inv_r;
        acc += d * f;
        ++interactions;
      }
      k = e.skip;
    } else {
      ++k;
    }
  }
  return acc;
}

bool same_bits(const Vec3& a, const Vec3& b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

// The group walk against the oracle: every body of a whole pass (groups of
// kGroupSize in leaf order), then runs of 1, 2, G-1, G and G+1 leaf-order
// positions at the start, middle and end, and acceleration(i), all through
// `kernel`.
void expect_group_walk_matches(const std::vector<Body>& bodies, double theta,
                               double softening, const std::string& what,
                               ForceKernel kernel = default_kernel()) {
  SCOPED_TRACE(what + " theta=" + std::to_string(theta) + " kernel " +
               kernel_name(kernel));
  Octree tree;
  tree.build(bodies);
  const int n = static_cast<int>(bodies.size());
  std::vector<int> sorted = tree.order();
  std::sort(sorted.begin(), sorted.end());
  for (int i = 0; i < n; ++i) ASSERT_EQ(sorted[static_cast<std::size_t>(i)], i);

  std::vector<Vec3> want(bodies.size());
  std::vector<std::uint64_t> want_count(bodies.size(), 0);
  for (int i = 0; i < n; ++i) {
    want[static_cast<std::size_t>(i)] =
        walk_one(tree, bodies, i, theta, softening,
                 want_count[static_cast<std::size_t>(i)]);
  }
  const auto expect_run = [&](int first, int last) {
    std::vector<Body> got = bodies;
    const std::uint64_t count =
        tree.accelerate(got, static_cast<std::size_t>(first),
                        static_cast<std::size_t>(last), theta, softening,
                        kernel);
    std::uint64_t expected = 0;
    for (int at = first; at < last; ++at) {
      const int b = tree.order()[static_cast<std::size_t>(at)];
      expected += want_count[static_cast<std::size_t>(b)];
      EXPECT_TRUE(same_bits(got[static_cast<std::size_t>(b)].acc,
                            want[static_cast<std::size_t>(b)]))
          << "body " << b << " in run [" << first << ", " << last << ")";
    }
    EXPECT_EQ(count, expected) << "run [" << first << ", " << last << ")";
  };
  expect_run(0, n);
  constexpr int G = Octree::kGroupSize;
  for (const int len : {1, 2, G - 1, G, G + 1}) {
    if (len > n) continue;
    for (const int first : {0, (n - len) / 2, n - len}) {
      expect_run(first, first + len);
    }
  }
  for (const int i : {0, n / 2, n - 1}) {
    std::uint64_t count = 0;
    const Vec3 a =
        tree.acceleration(bodies, i, theta, softening, count, kernel);
    EXPECT_TRUE(same_bits(a, want[static_cast<std::size_t>(i)])) << i;
    EXPECT_EQ(count, want_count[static_cast<std::size_t>(i)]) << i;
  }
}

std::vector<Body> with_positions(const std::vector<Vec3>& pos) {
  std::vector<Body> bodies(pos.size());
  for (std::size_t i = 0; i < pos.size(); ++i) {
    bodies[i].pos = pos[i];
    bodies[i].mass = 1.0 / static_cast<double>(pos.size());
  }
  return bodies;
}

std::vector<Body> uniform_cube(int n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Vec3> pos(static_cast<std::size_t>(n));
  for (auto& p : pos) {
    p = Vec3{2 * rng.uniform01() - 1, 2 * rng.uniform01() - 1,
             2 * rng.uniform01() - 1};
  }
  return with_positions(pos);
}

// Eight tight clumps far apart.
std::vector<Body> clustered(int n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Vec3> centre(8);
  for (auto& c : centre) {
    c = Vec3{rng.uniform01(), rng.uniform01(), rng.uniform01()} * 10.0;
  }
  std::vector<Vec3> pos(static_cast<std::size_t>(n));
  for (std::size_t i = 0; i < pos.size(); ++i) {
    pos[i] = centre[i % 8] + Vec3{rng.normal(0, 1e-3), rng.normal(0, 1e-3),
                                  rng.normal(0, 1e-3)};
  }
  return with_positions(pos);
}

// A Plummer set where every fifth body sits exactly on another (some
// positions three deep): the tree merges them at its depth limit, so they
// have no leaf of their own.
std::vector<Body> with_duplicates(int n, std::uint64_t seed) {
  std::vector<Body> bodies = plummer(n, seed);
  for (std::size_t i = 5; i < bodies.size(); i += 5) {
    bodies[i].pos = bodies[i % 3 == 0 ? 1 : i - 1].pos;
  }
  return bodies;
}

// Integer lattice points: many equal separations, and bodies exactly on
// cell-centre planes.
std::vector<Body> lattice(int side) {
  std::vector<Vec3> pos;
  for (int x = 0; x < side; ++x) {
    for (int y = 0; y < side; ++y) {
      for (int z = 0; z < side; ++z) pos.push_back(Vec3{1.0 * x, 1.0 * y, 1.0 * z});
    }
  }
  return with_positions(pos);
}

// Every set at every theta through `kernel`.
void expect_sets_match(ForceKernel kernel) {
  const std::vector<std::pair<std::string, std::vector<Body>>> sets = {
      {"plummer", plummer(700, 21)},
      {"uniform cube", uniform_cube(600, 22)},
      {"clustered", clustered(500, 23)},
      {"duplicates", with_duplicates(400, 24)},
      {"lattice", lattice(7)},
      {"fewer than a group", plummer(Octree::kGroupSize / 2 + 3, 25)},
  };
  for (const auto& [name, bodies] : sets) {
    for (const double theta : {0.0, 0.3, 0.6, 1.0}) {
      expect_group_walk_matches(bodies, theta, 0.05, name, kernel);
    }
  }
  // Without softening a member's own leaf would add NaN: it must be
  // masked, not summed.
  expect_group_walk_matches(plummer(300, 26), 0.6, 0.0, "plummer eps=0",
                            kernel);
}

TEST(GroupWalk, MatchesPerBodyWalkBitForBit) {
  expect_sets_match(default_kernel());
}

// Both instances of the four-lane kernel, whichever one the force pass
// dispatches to on this CPU.
TEST(GroupWalk, Sse2KernelMatchesPerBodyWalkBitForBit) {
  expect_sets_match(ForceKernel::kSse2);
}

TEST(GroupWalk, Avx2KernelMatchesPerBodyWalkBitForBit) {
  if (!kernel_supported(ForceKernel::kAvx2)) {
    GTEST_SKIP() << "this CPU has no AVX2";
  }
  expect_sets_match(ForceKernel::kAvx2);
}

TEST(GroupWalk, DepthLimitMergesKeepEveryBodyInLeafOrder) {
  // All bodies on one point but one: all but one merge into a single leaf.
  std::vector<Vec3> pos(40, Vec3{0.25, 0.5, 0.75});
  pos.push_back(Vec3{1, 1, 1});
  const std::vector<Body> bodies = with_positions(pos);
  Octree tree;
  tree.build(bodies);
  EXPECT_EQ(tree.order().size(), bodies.size());
  expect_group_walk_matches(bodies, 0.6, 0.05, "one point");
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
