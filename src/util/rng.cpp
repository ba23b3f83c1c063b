#include "util/rng.hpp"

#include <cmath>

namespace ess {

Rng::Rng(std::uint64_t seed) {
  SplitMix64 sm(seed);
  for (auto& w : s_) w = sm.next();
}

std::int64_t Rng::uniform_range(std::int64_t lo, std::int64_t hi) {
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<std::int64_t>(uniform(span));
}

double Rng::uniform01() {
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::exponential(double mean) {
  double u;
  do {
    u = uniform01();
  } while (u <= 0.0);
  return -mean * std::log(u);
}

double Rng::normal(double mean, double stddev) {
  if (have_cached_normal_) {
    have_cached_normal_ = false;
    return mean + stddev * cached_normal_;
  }
  double u1;
  do {
    u1 = uniform01();
  } while (u1 <= 0.0);
  const double u2 = uniform01();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * M_PI * u2;
  cached_normal_ = r * std::sin(theta);
  have_cached_normal_ = true;
  return mean + stddev * r * std::cos(theta);
}

bool Rng::chance(double p) { return uniform01() < p; }

Rng Rng::split() {
  Rng child(next_u64() ^ 0xdeadbeefcafef00dULL);
  return child;
}

}  // namespace ess
