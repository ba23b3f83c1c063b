// The group walk's inner kernel: four members of a group evaluated
// together, written once over a 4-lane vector of doubles and built twice.
// octree.cpp instantiates it for baseline SSE2 (Sse2x4: two 128-bit
// halves); lanes_avx2.cpp, compiled with -mavx2 -mno-fma, for AVX2
// (Avx2x4: one 256-bit register). default_kernel() picks the AVX2
// instance, once per process, when the CPU has AVX2.
//
// Both instances compute every lane with the same IEEE operations in the
// same order (sub, mul, add, sqrt, div: each correctly rounded, in either
// ISA), and neither may fuse a multiply into an add, so they give the same
// bits. DESIGN.md §11 has the argument.
//
// Only plain data is shared between the two translation units: each vector
// type, and so each instance of the template, is used in one of them.
#pragma once

#include <cstdint>

#if !defined(__SSE2__)
#error "the N-body group walk needs SSE2"
#endif
#include <emmintrin.h>
#if defined(__AVX2__)
#include <immintrin.h>
#endif

#include "apps/nbody/octree.hpp"

namespace ess::apps::nbody::lanes {

// Members evaluated together: the group is taken four at a time.
inline constexpr int kLanes = 4;

/// An entry every member of a group accepts, copied out of the walk.
struct Item {
  double x, y, z, mass;
  double body;  // a leaf's body index (a member skips its own), or -1
};

/// A run of items [begin, end), or of walk entries [begin, end) (whole
/// subtrees) that each member walks itself.
struct Segment {
  int begin, end;
  bool walk;
};

/// One group's members and its segments, in walk order.
struct Group {
  // Members at px[m] etc., padded to a whole number of kLanes with empty
  // lanes (id -2).
  const double* px;
  const double* py;
  const double* pz;
  const int* id;
  int count;  // members, before the padding
  const Item* items;
  const Segment* segments;
  int segment_count;
  const Octree::WalkEntry* walk;
  double theta2, eps2;
};

/// Sets acc[0..count) for the group's members; returns the walk
/// segments' interactions (the items' count is the caller's).
using Kernel = std::uint64_t (*)(const Group& g, Vec3* acc);

std::uint64_t group_sse2(const Group& g, Vec3* acc);
std::uint64_t group_avx2(const Group& g, Vec3* acc);  // lanes_avx2.cpp

// For each 4-bit set of lanes: all-ones 64-bit (kMask64) and 32-bit
// (kMask32) lanes where its bit is set, and how many bits are set.
alignas(32) inline constexpr std::int64_t kMask64[16][kLanes] = {
    {0, 0, 0, 0},     {-1, 0, 0, 0},     {0, -1, 0, 0},    {-1, -1, 0, 0},
    {0, 0, -1, 0},    {-1, 0, -1, 0},    {0, -1, -1, 0},   {-1, -1, -1, 0},
    {0, 0, 0, -1},    {-1, 0, 0, -1},    {0, -1, 0, -1},   {-1, -1, 0, -1},
    {0, 0, -1, -1},   {-1, 0, -1, -1},   {0, -1, -1, -1},  {-1, -1, -1, -1}};
alignas(16) inline constexpr std::int32_t kMask32[16][kLanes] = {
    {0, 0, 0, 0},     {-1, 0, 0, 0},     {0, -1, 0, 0},    {-1, -1, 0, 0},
    {0, 0, -1, 0},    {-1, 0, -1, 0},    {0, -1, -1, 0},   {-1, -1, -1, 0},
    {0, 0, 0, -1},    {-1, 0, 0, -1},    {0, -1, 0, -1},   {-1, -1, 0, -1},
    {0, 0, -1, -1},   {-1, 0, -1, -1},   {0, -1, -1, -1},  {-1, -1, -1, -1}};
inline constexpr int kCount[16] = {0, 1, 1, 2, 1, 2, 2, 3,
                                   1, 2, 2, 3, 2, 3, 3, 4};

/// Four doubles in two SSE2 registers: lanes 0-1 and 2-3.
struct Sse2x4 {
  __m128d lo, hi;

  static Sse2x4 set1(double v) {
    const __m128d x = _mm_set1_pd(v);
    return {x, x};
  }
  static Sse2x4 load(const double* p) {
    return {_mm_loadu_pd(p), _mm_loadu_pd(p + 2)};
  }
  static Sse2x4 from_int32(__m128i v) {
    return {_mm_cvtepi32_pd(v), _mm_cvtepi32_pd(_mm_unpackhi_epi64(v, v))};
  }
  /// All-ones in the lanes of `bits`, zero elsewhere.
  static Sse2x4 mask(int bits) {
    const auto* m = reinterpret_cast<const double*>(kMask64[bits]);
    return {_mm_load_pd(m), _mm_load_pd(m + 2)};
  }
  /// Bit l set iff lane l of a compare result is set.
  int bits() const { return _mm_movemask_pd(lo) | _mm_movemask_pd(hi) << 2; }
  void store(double* p) const {
    _mm_storeu_pd(p, lo);
    _mm_storeu_pd(p + 2, hi);
  }

  friend Sse2x4 operator+(Sse2x4 a, Sse2x4 b) {
    return {_mm_add_pd(a.lo, b.lo), _mm_add_pd(a.hi, b.hi)};
  }
  friend Sse2x4 operator-(Sse2x4 a, Sse2x4 b) {
    return {_mm_sub_pd(a.lo, b.lo), _mm_sub_pd(a.hi, b.hi)};
  }
  friend Sse2x4 operator*(Sse2x4 a, Sse2x4 b) {
    return {_mm_mul_pd(a.lo, b.lo), _mm_mul_pd(a.hi, b.hi)};
  }
  friend Sse2x4 operator/(Sse2x4 a, Sse2x4 b) {
    return {_mm_div_pd(a.lo, b.lo), _mm_div_pd(a.hi, b.hi)};
  }
  friend Sse2x4 operator&(Sse2x4 a, Sse2x4 b) {
    return {_mm_and_pd(a.lo, b.lo), _mm_and_pd(a.hi, b.hi)};
  }
  friend Sse2x4 sqrt(Sse2x4 a) {
    return {_mm_sqrt_pd(a.lo), _mm_sqrt_pd(a.hi)};
  }
  friend Sse2x4 operator<(Sse2x4 a, Sse2x4 b) {
    return {_mm_cmplt_pd(a.lo, b.lo), _mm_cmplt_pd(a.hi, b.hi)};
  }
  friend Sse2x4 operator!=(Sse2x4 a, Sse2x4 b) {
    return {_mm_cmpneq_pd(a.lo, b.lo), _mm_cmpneq_pd(a.hi, b.hi)};
  }
};

#if defined(__AVX2__)
/// Four doubles in one AVX register.
struct Avx2x4 {
  __m256d v;

  static Avx2x4 set1(double x) { return {_mm256_set1_pd(x)}; }
  static Avx2x4 load(const double* p) { return {_mm256_loadu_pd(p)}; }
  static Avx2x4 from_int32(__m128i x) { return {_mm256_cvtepi32_pd(x)}; }
  static Avx2x4 mask(int bits) {
    return {_mm256_load_pd(reinterpret_cast<const double*>(kMask64[bits]))};
  }
  int bits() const { return _mm256_movemask_pd(v); }
  void store(double* p) const { _mm256_storeu_pd(p, v); }

  friend Avx2x4 operator+(Avx2x4 a, Avx2x4 b) {
    return {_mm256_add_pd(a.v, b.v)};
  }
  friend Avx2x4 operator-(Avx2x4 a, Avx2x4 b) {
    return {_mm256_sub_pd(a.v, b.v)};
  }
  friend Avx2x4 operator*(Avx2x4 a, Avx2x4 b) {
    return {_mm256_mul_pd(a.v, b.v)};
  }
  friend Avx2x4 operator/(Avx2x4 a, Avx2x4 b) {
    return {_mm256_div_pd(a.v, b.v)};
  }
  friend Avx2x4 operator&(Avx2x4 a, Avx2x4 b) {
    return {_mm256_and_pd(a.v, b.v)};
  }
  friend Avx2x4 sqrt(Avx2x4 a) { return {_mm256_sqrt_pd(a.v)}; }
  friend Avx2x4 operator<(Avx2x4 a, Avx2x4 b) {
    return {_mm256_cmp_pd(a.v, b.v, _CMP_LT_OS)};
  }
  friend Avx2x4 operator!=(Avx2x4 a, Avx2x4 b) {
    return {_mm256_cmp_pd(a.v, b.v, _CMP_NEQ_UQ)};
  }
};
#endif

/// Four members of a group, with the arithmetic of the per-body walk loop
/// in its order: d = com - p, r2 = (d.x*d.x + d.y*d.y) + d.z*d.z, accept
/// iff cell2 < theta2*r2, and acc += d * f with f = mass*inv_r*inv_r*inv_r,
/// inv_r = 1/sqrt(r2 + eps2). A term a member must not add is masked to
/// +0.0, which leaves its sum (which starts at +0.0, so is never -0.0) bit
/// for bit unchanged.
template <typename V>
class Lanes {
 public:
  /// The members at g.px[m..m+4) etc.
  Lanes(const Group& g, int m)
      : x_(V::load(g.px + m)),
        y_(V::load(g.py + m)),
        z_(V::load(g.pz + m)),
        id_(_mm_loadu_si128(reinterpret_cast<const __m128i*>(g.id + m))),
        self_(V::from_int32(id_)),
        eps2_(V::set1(g.eps2)) {}

  /// Add items [begin, end), which every member accepts.
  void interact(const Item* items, int begin, int end) {
    for (int j = begin; j < end; ++j) {
      const Item& it = items[j];
      distance(it.x, it.y, it.z);
      add(V::set1(it.mass), V::set1(it.body) != self_);
    }
  }

  /// Every member's own walk over entries [begin, end), a run of whole
  /// subtrees, in lockstep: an accepted entry interacts (unless it is the
  /// member's own leaf) and the member resumes after its subtree; a
  /// rejected one is stepped into. The walk jumps past a subtree once no
  /// member still inside it opens it, so it visits the union of the
  /// members' own visits, each in walk order.
  std::uint64_t walk(const Octree::WalkEntry* walk, int begin, int end,
                     V theta2) {
    // Lane l sits out entries before resume[l]: an empty lane, all.
    const __m128i empty = _mm_cmplt_epi32(id_, _mm_setzero_si128());
    __m128i resume =
        _mm_or_si128(_mm_and_si128(empty, _mm_set1_epi32(end)),
                     _mm_andnot_si128(empty, _mm_set1_epi32(begin)));
    std::uint64_t interactions = 0;
    int k = begin;
    while (k < end) {
      const Octree::WalkEntry& e = walk[k];
      distance(e.com.x, e.com.y, e.com.z);
      const int accept = (V::set1(e.cell2) < theta2 * r2_).bits();
      const int waiting = _mm_movemask_ps(
          _mm_castsi128_ps(_mm_cmpgt_epi32(resume, _mm_set1_epi32(k))));
      const int own = _mm_movemask_ps(
          _mm_castsi128_ps(_mm_cmpeq_epi32(id_, _mm_set1_epi32(e.body))));
      const int active = ~waiting & 0xF;
      const int take = accept & active;
      if (const int use = take & ~own; use != 0) {
        add(V::set1(e.mass), V::mask(use));
        interactions += static_cast<std::uint64_t>(kCount[use]);
      }
      if (take == active) {
        k = e.skip;
      } else {
        const __m128i m =
            _mm_load_si128(reinterpret_cast<const __m128i*>(kMask32[take]));
        resume = _mm_or_si128(_mm_and_si128(m, _mm_set1_epi32(e.skip)),
                              _mm_andnot_si128(m, resume));
        ++k;
      }
    }
    return interactions;
  }

  /// Lanes [0, n) into acc[0..n).
  void store(Vec3* acc, int n) const {
    alignas(32) double ax[kLanes], ay[kLanes], az[kLanes];
    ax_.store(ax);
    ay_.store(ay);
    az_.store(az);
    for (int l = 0; l < n; ++l) acc[l] = Vec3{ax[l], ay[l], az[l]};
  }

 private:
  void distance(double cx, double cy, double cz) {
    dx_ = V::set1(cx) - x_;
    dy_ = V::set1(cy) - y_;
    dz_ = V::set1(cz) - z_;
    r2_ = (dx_ * dx_ + dy_ * dy_) + dz_ * dz_;
  }

  void add(V mass, V keep) {
    const V inv_r = V::set1(1.0) / sqrt(r2_ + eps2_);
    const V f = (mass * inv_r * inv_r * inv_r) & keep;
    ax_ = ax_ + dx_ * f;
    ay_ = ay_ + dy_ * f;
    az_ = az_ + dz_ * f;
  }

  V x_, y_, z_;
  __m128i id_;  // the members' body indices (-2: an empty lane)
  V self_;      // the same, as doubles
  V eps2_;
  V ax_ = V::set1(0.0), ay_ = V::set1(0.0), az_ = V::set1(0.0);
  // The entry under evaluation: d per axis and r2.
  V dx_ = V::set1(0.0), dy_ = V::set1(0.0), dz_ = V::set1(0.0),
    r2_ = V::set1(0.0);
};

/// One group: each four members apply the segments in walk order, so each
/// sums the same terms in the same order as a walk of its own.
template <typename V>
std::uint64_t group_forces(const Group& g, Vec3* acc) {
  const V theta2 = V::set1(g.theta2);
  std::uint64_t interactions = 0;
  for (int m = 0; m < g.count; m += kLanes) {
    Lanes<V> lanes(g, m);
    for (int s = 0; s < g.segment_count; ++s) {
      const Segment& seg = g.segments[s];
      if (seg.walk) {
        interactions += lanes.walk(g.walk, seg.begin, seg.end, theta2);
      } else {
        lanes.interact(g.items, seg.begin, seg.end);
      }
    }
    lanes.store(acc + m, g.count - m < kLanes ? g.count - m : kLanes);
  }
  return interactions;
}

}  // namespace ess::apps::nbody::lanes
