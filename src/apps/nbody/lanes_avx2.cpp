// The AVX2 instance of the group walk's kernel. This file alone is built
// with -mavx2 -mno-fma (src/apps/CMakeLists.txt); it runs only where
// __builtin_cpu_supports("avx2") holds (see default_kernel()).
#if !defined(__AVX2__) || defined(__FMA__)
#error "lanes_avx2.cpp must be built with -mavx2 -mno-fma"
#endif

#include "apps/nbody/lanes.hpp"

namespace ess::apps::nbody::lanes {

std::uint64_t group_avx2(const Group& g, Vec3* acc) {
  return group_forces<Avx2x4>(g, acc);
}

}  // namespace ess::apps::nbody::lanes
