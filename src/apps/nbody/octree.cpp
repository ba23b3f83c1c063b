#include "apps/nbody/octree.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "exec/thread_pool.hpp"

namespace ess::apps::nbody {

int Octree::make_node(const Vec3& center, double half) {
  Node n;
  n.center = center;
  n.half = half;
  nodes_.push_back(n);
  return static_cast<int>(nodes_.size() - 1);
}

void Octree::build(const std::vector<Body>& bodies) {
  nodes_.clear();
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
  flatten(bodies, 0);
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

Vec3 Octree::acceleration(const std::vector<Body>& bodies, int i,
                          double theta, double softening,
                          std::uint64_t& interactions) const {
  const Vec3 pi = bodies[i].pos;
  Vec3 acc;
  const double theta2 = theta * theta;
  const double eps2 = softening * softening;
  const WalkEntry* walk = walk_.data();
  const int end = static_cast<int>(walk_.size());
  for (int k = 0; k < end;) {
    const WalkEntry& e = walk[k];
    const Vec3 d = e.com - pi;
    const double r2 = d.norm2();
    if (e.cell2 < theta2 * r2) {
      // Far enough (or a leaf): interact, then skip the subtree.
      if (e.body != i) {
        const double rr2 = r2 + eps2;
        const double inv_r = 1.0 / std::sqrt(rr2);
        const double f = e.mass * inv_r * inv_r * inv_r;
        acc += d * f;
        ++interactions;
      }
      k = e.skip;
    } else {
      ++k;  // open the cell: its children follow it
    }
  }
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
  // Blocks read the tree and write only their own bodies' acc.
  const std::size_t n = bodies_.size();
  const std::size_t block = (n + kForceBlocks - 1) / kForceBlocks;
  std::array<std::uint64_t, kForceBlocks> inter{};
  const auto force_block = [&](std::size_t k) {
    std::uint64_t count = 0;  // local: inter[] shares cache lines
    const std::size_t end = std::min(n, (k + 1) * block);
    for (std::size_t i = k * block; i < end; ++i) {
      bodies_[i].acc = tree_.acceleration(bodies_, static_cast<int>(i), theta,
                                          softening, count);
    }
    inter[k] = count;
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
