// Barnes-Hut oct-tree gravitational N-body — the paper's third workload:
// "an oct-tree algorithm with 8K particles per processor, which resulted in
// 303 million total particle interactions" (Olson & Dorband tree code).
//
// Full 3-D implementation: octree construction by recursive insertion,
// centre-of-mass computation, force evaluation with the theta opening
// criterion and Plummer softening, leapfrog (KDK) integration, and exact
// interaction counting.
//
// The force pass runs over kForceBlocks fixed blocks of the tree's leaf
// order, on an optional exec::ThreadPool. The partition does not depend on
// the worker count, each body's acceleration is written by exactly one
// block, and the per-block interaction counts are summed as integers, so
// positions, velocities, accelerations and counts are bit-identical at any
// worker count, serial included.
//
// build() also flattens the tree into a walk array in depth-first
// pre-order, children 7..0, and records the bodies in leaf order. Forces
// are computed for groups of kGroupSize bodies consecutive in leaf order:
// one walk per group over the group's bounding box sorts the walk into
// entries every member accepts (evaluated for all members at once),
// entries every member opens (stepped into), and subtrees the members
// must decide for themselves (walked with the per-body rules: an accepted
// entry interacts and jumps past its subtree, a rejected one steps into
// it). The box bounds round the way each member's own distance rounds, so
// every body accepts the same entries and sums them in the same order as
// a walk of its own: the results keep the bits of the explicit-stack
// traversal the walk replaced (which pushed children 0..7 and popped them
// 7..0), and NBodySim.MatchesPinnedStackTraversalDigest checks that they
// do. Members are evaluated four at a time by a kernel built for SSE2 and
// for AVX2 (lanes.hpp), which give the same bits. DESIGN.md §11 has the
// argument.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "util/rng.hpp"

namespace ess::exec {
class ThreadPool;
}

namespace ess::apps::nbody {

struct Vec3 {
  double x = 0, y = 0, z = 0;

  Vec3 operator+(const Vec3& o) const { return {x + o.x, y + o.y, z + o.z}; }
  Vec3 operator-(const Vec3& o) const { return {x - o.x, y - o.y, z - o.z}; }
  Vec3 operator*(double s) const { return {x * s, y * s, z * s}; }
  Vec3& operator+=(const Vec3& o) {
    x += o.x;
    y += o.y;
    z += o.z;
    return *this;
  }
  double norm2() const { return x * x + y * y + z * z; }
};

struct Body {
  Vec3 pos, vel, acc;
  double mass = 0;
};

/// The instances of the group walk's four-lane kernel (lanes.hpp), one per
/// instruction set. They give the same bits.
enum class ForceKernel { kSse2, kAvx2 };

/// Whether this CPU can run `kernel`.
bool kernel_supported(ForceKernel kernel);

/// The instance the force pass runs: AVX2 where the CPU has it, chosen
/// once per process.
ForceKernel default_kernel();

/// "sse2" or "avx2".
const char* kernel_name(ForceKernel kernel);

/// Octree over a cubic domain; nodes stored in a flat arena.
class Octree {
 public:
  struct Node {
    Vec3 center;          // geometric centre of the cell
    double half = 0;      // half-width
    Vec3 com;             // centre of mass
    double mass = 0;
    int body = -1;        // leaf: index of the single body (-1 otherwise)
    int count = 0;        // bodies in the subtree
    std::array<int, 8> child{-1, -1, -1, -1, -1, -1, -1, -1};
  };

  /// One node of the force walk, in visit order.
  struct WalkEntry {
    Vec3 com;          // internal: centre of mass; leaf: the body's pos
    double mass = 0;   // internal: subtree mass; leaf: the body's mass
    double cell2 = 0;  // internal: (2 half)^2; leaf: -inf (always accepted)
    int body = -1;     // leaf: the body's index; internal: -1
    int skip = 0;      // index of the first entry after this subtree
  };

  /// Bodies whose forces share one walk of the tree.
  static constexpr int kGroupSize = 32;

  /// Build over the given bodies (the bounding cube is computed).
  void build(const std::vector<Body>& bodies);

  /// Set bodies[b].acc for every body b at leaf-order positions
  /// [first, last), in groups of kGroupSize positions; returns every
  /// body-body and body-cell interaction evaluated. The tree must have been
  /// built over these bodies; only their acc is written. `kernel` must be
  /// supported by the CPU.
  std::uint64_t accelerate(std::vector<Body>& bodies, std::size_t first,
                           std::size_t last, double theta, double softening,
                           ForceKernel kernel = default_kernel()) const;

  /// The acceleration on body i alone (a group of one); adds its
  /// interactions to `interactions`.
  Vec3 acceleration(const std::vector<Body>& bodies, int i, double theta,
                    double softening, std::uint64_t& interactions,
                    ForceKernel kernel = default_kernel()) const;

  std::size_t node_count() const { return nodes_.size(); }
  const Node& root() const { return nodes_.front(); }
  /// The walk array, in visit order.
  const std::vector<WalkEntry>& walk() const { return walk_; }
  /// Body indices in leaf order: the walk's leaves, then any bodies merged
  /// into another's leaf at the depth limit. Every body appears once.
  const std::vector<int>& order() const { return order_; }

 private:
  struct GroupList;

  int make_node(const Vec3& center, double half);
  void insert(const std::vector<Body>& bodies, int node, int body, int depth);
  void finalize(const std::vector<Body>& bodies, int node);
  void flatten(const std::vector<Body>& bodies, int node);
  /// Accelerations of the bodies at leaf-order positions [first, last)
  /// (at most kGroupSize) into acc[0..last-first); returns interactions.
  std::uint64_t group_forces(const std::vector<Body>& bodies, int first,
                             int last, double theta, double softening,
                             ForceKernel kernel, Vec3* acc,
                             GroupList& list) const;

  std::vector<Node> nodes_;
  std::vector<WalkEntry> walk_;
  std::vector<int> order_;     // leaf-order position -> body
  std::vector<int> position_;  // body -> leaf-order position
  std::vector<int> merged_;    // bodies merged at the depth limit
};

struct SystemStats {
  double kinetic = 0;
  double potential_proxy = 0;  // -sum m_i |a_i| r_i (cheap bound proxy)
  Vec3 momentum;
  double max_speed = 0;
};

class NBodySim {
 public:
  /// Leaf-order blocks of the force pass (the last may be short or empty).
  static constexpr int kForceBlocks = 64;

  /// `pool` (not owned; null = serial) runs the force pass's blocks.
  NBodySim(int n_bodies, std::uint64_t seed,
           exec::ThreadPool* pool = nullptr);

  /// One leapfrog step; returns interactions evaluated.
  std::uint64_t step(double dt, double theta, double softening);

  SystemStats stats() const;
  const std::vector<Body>& bodies() const { return bodies_; }
  std::uint64_t total_interactions() const { return total_interactions_; }

 private:
  void compute_forces(double theta, double softening);

  std::vector<Body> bodies_;
  Octree tree_;
  exec::ThreadPool* pool_ = nullptr;
  std::uint64_t total_interactions_ = 0;
  std::uint64_t last_step_interactions_ = 0;
  bool first_step_ = true;
};

}  // namespace ess::apps::nbody
