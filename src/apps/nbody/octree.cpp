#include "apps/nbody/octree.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "apps/nbody/lanes.hpp"
#include "exec/thread_pool.hpp"

namespace ess::apps::nbody {
namespace {

// Relative slack on the group bounds: the bounds are already exact (see
// nearest2), so this only keeps a rounding slip from mattering.
constexpr double kBoundMargin = 1e-9;

// Squared distance from c to the nearest point of the box [lo, hi]. For a
// member p in the box, |c - p| rounds to at least the per-axis gap below,
// and squares and sums round monotonically, so this is at most the r2 =
// (c - p).norm2() the member computes: it has the same operation shape.
double nearest2(const Vec3& c, const Vec3& lo, const Vec3& hi) {
  const auto gap = [](double c, double lo, double hi) {
    return c < lo ? lo - c : c > hi ? c - hi : 0.0;
  };
  return Vec3{gap(c.x, lo.x, hi.x), gap(c.y, lo.y, hi.y),
              gap(c.z, lo.z, hi.z)}
      .norm2();
}

// Squared distance from c to the farthest corner of [lo, hi]: at least
// every member's r2, by the same argument.
double farthest2(const Vec3& c, const Vec3& lo, const Vec3& hi) {
  const auto reach = [](double c, double lo, double hi) {
    return std::max(std::abs(c - lo), std::abs(c - hi));
  };
  return Vec3{reach(c.x, lo.x, hi.x), reach(c.y, lo.y, hi.y),
              reach(c.z, lo.z, hi.z)}
      .norm2();
}

}  // namespace

bool kernel_supported(ForceKernel kernel) {
  return kernel == ForceKernel::kSse2 || __builtin_cpu_supports("avx2");
}

ForceKernel default_kernel() {
  static const ForceKernel kernel = kernel_supported(ForceKernel::kAvx2)
                                        ? ForceKernel::kAvx2
                                        : ForceKernel::kSse2;
  return kernel;
}

const char* kernel_name(ForceKernel kernel) {
  return kernel == ForceKernel::kAvx2 ? "avx2" : "sse2";
}

std::uint64_t lanes::group_sse2(const Group& g, Vec3* acc) {
  return group_forces<Sse2x4>(g, acc);
}

// One group's share of the walk, in walk order: runs of entries every
// member accepts (copied out as items) and runs of subtrees the members
// walk themselves.
struct Octree::GroupList {
  std::vector<lanes::Item> items;
  std::vector<lanes::Segment> segments;

  void add_item(const lanes::Item& it) {
    items.push_back(it);
    const int n = static_cast<int>(items.size());
    if (!segments.empty() && !segments.back().walk) {
      segments.back().end = n;
    } else {
      segments.push_back({n - 1, n, false});
    }
  }
  void add_walk(int k, int skip) {
    if (!segments.empty() && segments.back().walk &&
        segments.back().end == k) {
      segments.back().end = skip;
    } else {
      segments.push_back({k, skip, true});
    }
  }
};

int Octree::make_node(const Vec3& center, double half) {
  Node n;
  n.center = center;
  n.half = half;
  nodes_.push_back(n);
  return static_cast<int>(nodes_.size() - 1);
}

void Octree::build(const std::vector<Body>& bodies) {
  nodes_.clear();
  merged_.clear();
  if (bodies.empty()) throw std::invalid_argument("no bodies");
  nodes_.reserve(bodies.size() * 2);

  Vec3 lo = bodies[0].pos, hi = bodies[0].pos;
  for (const auto& b : bodies) {
    lo.x = std::min(lo.x, b.pos.x);
    lo.y = std::min(lo.y, b.pos.y);
    lo.z = std::min(lo.z, b.pos.z);
    hi.x = std::max(hi.x, b.pos.x);
    hi.y = std::max(hi.y, b.pos.y);
    hi.z = std::max(hi.z, b.pos.z);
  }
  const Vec3 center{(lo.x + hi.x) / 2, (lo.y + hi.y) / 2, (lo.z + hi.z) / 2};
  const double half =
      std::max({hi.x - lo.x, hi.y - lo.y, hi.z - lo.z}) / 2 + 1e-9;
  make_node(center, half);
  for (int i = 0; i < static_cast<int>(bodies.size()); ++i) {
    insert(bodies, 0, i, 0);
  }
  finalize(bodies, 0);
  walk_.clear();
  walk_.reserve(nodes_.size());
  order_.clear();
  order_.reserve(bodies.size());
  position_.assign(bodies.size(), -1);
  flatten(bodies, 0);
  for (const int b : merged_) {
    position_[static_cast<std::size_t>(b)] = static_cast<int>(order_.size());
    order_.push_back(b);
  }
}

void Octree::insert(const std::vector<Body>& bodies, int node, int body,
                    int depth) {
  constexpr int kMaxDepth = 64;
  Node& n = nodes_[node];
  if (n.count == 0) {
    n.body = body;
    n.count = 1;
    return;
  }
  if (depth >= kMaxDepth) {
    // Coincident points: merge into the cell (the COM pass handles mass).
    n.count++;
    merged_.push_back(body);
    return;
  }
  // Internal (or leaf being split): push any resident body down.
  const int resident = n.body;
  n.body = -1;
  n.count++;

  auto child_of = [&](const Vec3& p) {
    const Node& nn = nodes_[node];
    const int oct = (p.x >= nn.center.x ? 1 : 0) |
                    (p.y >= nn.center.y ? 2 : 0) |
                    (p.z >= nn.center.z ? 4 : 0);
    if (nodes_[node].child[oct] < 0) {
      const double h = nn.half / 2;
      const Vec3 c{nn.center.x + (oct & 1 ? h : -h),
                   nn.center.y + (oct & 2 ? h : -h),
                   nn.center.z + (oct & 4 ? h : -h)};
      const int idx = make_node(c, h);  // may reallocate nodes_
      nodes_[node].child[oct] = idx;
    }
    return nodes_[node].child[oct];
  };

  if (resident >= 0) {
    const int c = child_of(bodies[resident].pos);
    insert(bodies, c, resident, depth + 1);
  }
  const int c = child_of(bodies[body].pos);
  insert(bodies, c, body, depth + 1);
}

void Octree::finalize(const std::vector<Body>& bodies, int node) {
  Node& n = nodes_[node];
  if (n.body >= 0) {
    // Leaf: the body itself (coincident merges carry count > 1 with the
    // same position, so mass scales with count).
    n.com = bodies[static_cast<std::size_t>(n.body)].pos;
    n.mass = bodies[static_cast<std::size_t>(n.body)].mass * n.count;
    return;
  }
  n.com = Vec3{};
  n.mass = 0;
  for (const int c : n.child) {
    if (c < 0) continue;
    finalize(bodies, c);
    const Node& cn = nodes_[c];
    n.com += cn.com * cn.mass;
    n.mass += cn.mass;
  }
  if (n.mass > 0) n.com = n.com * (1.0 / n.mass);
}

void Octree::flatten(const std::vector<Body>& bodies, int node) {
  const Node& n = nodes_[node];
  const int at = static_cast<int>(walk_.size());
  if (n.body >= 0) {
    // A leaf is always interacted with, at its body's own mass (not the
    // node's mass x count: coincident bodies merged at the depth limit are
    // represented by the resident one alone).
    const Body& b = bodies[n.body];
    walk_.push_back({b.pos, b.mass, -std::numeric_limits<double>::infinity(),
                     n.body, at + 1});
    position_[static_cast<std::size_t>(n.body)] =
        static_cast<int>(order_.size());
    order_.push_back(n.body);
    return;
  }
  const double cell = 2.0 * n.half;
  walk_.push_back({n.com, n.mass, cell * cell, -1, 0});
  // Children 7..0: the order the sums must keep (see the header).
  for (int k = 7; k >= 0; --k) {
    if (n.child[k] >= 0) flatten(bodies, n.child[k]);
  }
  walk_[at].skip = static_cast<int>(walk_.size());
}

std::uint64_t Octree::group_forces(const std::vector<Body>& bodies,
                                   int first, int last, double theta,
                                   double softening, ForceKernel kernel,
                                   Vec3* acc, GroupList& list) const {
  const int count = last - first;
  const double theta2 = theta * theta;
  const double eps2 = softening * softening;

  // Members in lanes, padded to a whole number of lanes::kLanes with empty
  // lanes (body -2) at the last member's position.
  constexpr int kLanes = lanes::kLanes;
  constexpr int kPadded = (kGroupSize + kLanes - 1) / kLanes * kLanes;
  double px[kPadded], py[kPadded], pz[kPadded];
  int id[kPadded];
  Vec3 lo = bodies[static_cast<std::size_t>(order_[first])].pos, hi = lo;
  for (int m = 0; m < count; ++m) {
    const int b = order_[static_cast<std::size_t>(first + m)];
    const Vec3& p = bodies[static_cast<std::size_t>(b)].pos;
    px[m] = p.x;
    py[m] = p.y;
    pz[m] = p.z;
    id[m] = b;
    lo = Vec3{std::min(lo.x, p.x), std::min(lo.y, p.y), std::min(lo.z, p.z)};
    hi = Vec3{std::max(hi.x, p.x), std::max(hi.y, p.y), std::max(hi.z, p.z)};
  }
  const int padded = (count + kLanes - 1) / kLanes * kLanes;
  for (int m = count; m < padded; ++m) {
    px[m] = px[count - 1];
    py[m] = py[count - 1];
    pz[m] = pz[count - 1];
    id[m] = -2;
  }

  // The shared walk. An entry every member accepts becomes an item and its
  // subtree is skipped; one every member opens is stepped into; any other
  // subtree is left to each member's own walk. The kernel then has each
  // member apply the segments in walk order, so it sums the same terms in
  // the same order as a walk of its own.
  list.items.clear();
  list.segments.clear();
  std::uint64_t own_leaves = 0;  // members' leaves among the items
  const double accept2 = theta2 * (1 - kBoundMargin);
  const double open2 = theta2 * (1 + kBoundMargin);
  const WalkEntry* walk = walk_.data();
  const int end = static_cast<int>(walk_.size());
  for (int k = 0; k < end;) {
    const WalkEntry& e = walk[k];
    if (e.body < 0 && !(e.cell2 < accept2 * nearest2(e.com, lo, hi))) {
      if (e.cell2 < open2 * farthest2(e.com, lo, hi)) {
        list.add_walk(k, e.skip);
        k = e.skip;
      } else {
        ++k;
      }
      continue;
    }
    if (e.body >= 0) {
      const int at = position_[static_cast<std::size_t>(e.body)];
      if (at >= first && at < last) ++own_leaves;
    }
    list.add_item({e.com.x, e.com.y, e.com.z, e.mass,
                   e.body >= 0 ? static_cast<double>(e.body) : -1.0});
    k = e.skip;
  }

  const lanes::Group group{px, py, pz, id, count, list.items.data(),
                           list.segments.data(),
                           static_cast<int>(list.segments.size()), walk,
                           theta2, eps2};
  const lanes::Kernel run =
      kernel == ForceKernel::kAvx2 ? lanes::group_avx2 : lanes::group_sse2;
  return list.items.size() * static_cast<std::uint64_t>(count) - own_leaves +
         run(group, acc);
}

std::uint64_t Octree::accelerate(std::vector<Body>& bodies, std::size_t first,
                                 std::size_t last, double theta,
                                 double softening, ForceKernel kernel) const {
  GroupList list;
  std::array<Vec3, kGroupSize> acc;
  std::uint64_t interactions = 0;
  for (std::size_t g = first; g < last; g += kGroupSize) {
    const std::size_t end = std::min(last, g + kGroupSize);
    interactions += group_forces(bodies, static_cast<int>(g),
                                 static_cast<int>(end), theta, softening,
                                 kernel, acc.data(), list);
    for (std::size_t j = g; j < end; ++j) {
      bodies[static_cast<std::size_t>(order_[j])].acc = acc[j - g];
    }
  }
  return interactions;
}

Vec3 Octree::acceleration(const std::vector<Body>& bodies, int i,
                          double theta, double softening,
                          std::uint64_t& interactions,
                          ForceKernel kernel) const {
  GroupList list;
  Vec3 acc;
  const int at = position_[static_cast<std::size_t>(i)];
  interactions += group_forces(bodies, at, at + 1, theta, softening, kernel,
                               &acc, list);
  return acc;
}

NBodySim::NBodySim(int n_bodies, std::uint64_t seed, exec::ThreadPool* pool)
    : pool_(pool) {
  Rng rng(seed);
  bodies_.resize(n_bodies);
  // Plummer-like sphere with isotropic velocities.
  for (auto& b : bodies_) {
    const double u = rng.uniform01();
    const double r = 1.0 / std::sqrt(std::pow(u + 1e-6, -2.0 / 3.0) - 1.0 + 1e-9);
    const double rr = std::min(r, 5.0);
    const double th = std::acos(2.0 * rng.uniform01() - 1.0);
    const double ph = 2.0 * M_PI * rng.uniform01();
    b.pos = Vec3{rr * std::sin(th) * std::cos(ph),
                 rr * std::sin(th) * std::sin(ph), rr * std::cos(th)};
    b.vel = Vec3{rng.normal(0, 0.1), rng.normal(0, 0.1), rng.normal(0, 0.1)};
    b.mass = 1.0 / n_bodies;
  }
}

void NBodySim::compute_forces(double theta, double softening) {
  tree_.build(bodies_);
  // Blocks of leaf-order positions read the tree and write only their own
  // bodies' acc.
  const std::size_t n = bodies_.size();
  const std::size_t block = (n + kForceBlocks - 1) / kForceBlocks;
  std::array<std::uint64_t, kForceBlocks> inter{};
  const auto force_block = [&](std::size_t k) {
    inter[k] = tree_.accelerate(bodies_, std::min(n, k * block),
                                std::min(n, (k + 1) * block), theta,
                                softening);
  };
  if (pool_ != nullptr) {
    exec::parallel_for(*pool_, kForceBlocks, force_block);
  } else {
    for (std::size_t k = 0; k < kForceBlocks; ++k) force_block(k);
  }
  last_step_interactions_ =
      std::accumulate(inter.begin(), inter.end(), std::uint64_t{0});
  total_interactions_ += last_step_interactions_;
}

std::uint64_t NBodySim::step(double dt, double theta, double softening) {
  if (first_step_) {
    compute_forces(theta, softening);
    first_step_ = false;
  }
  // KDK leapfrog.
  for (auto& b : bodies_) {
    b.vel += b.acc * (dt / 2);
    b.pos += b.vel * dt;
  }
  compute_forces(theta, softening);
  for (auto& b : bodies_) {
    b.vel += b.acc * (dt / 2);
  }
  return last_step_interactions_;
}

SystemStats NBodySim::stats() const {
  SystemStats s;
  for (const auto& b : bodies_) {
    const double v2 = b.vel.norm2();
    s.kinetic += 0.5 * b.mass * v2;
    s.momentum += b.vel * b.mass;
    s.max_speed = std::max(s.max_speed, std::sqrt(v2));
    s.potential_proxy -=
        b.mass * std::sqrt(b.acc.norm2()) * std::sqrt(b.pos.norm2());
  }
  return s;
}

}  // namespace ess::apps::nbody
