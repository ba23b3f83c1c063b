// Deterministic pseudo-random number generation for the simulator.
//
// xoshiro256** seeded via SplitMix64. We avoid <random> engines for state
// compactness and cross-platform reproducibility of the streams (libstdc++
// distributions are not guaranteed bit-identical across versions, so the
// distributions here are hand-rolled too).
#pragma once

#include <array>
#include <cstdint>

namespace ess {

/// SplitMix64: used to expand a single seed into xoshiro state.
class SplitMix64 {
 public:
  explicit constexpr SplitMix64(std::uint64_t seed) : state_(seed) {}

  constexpr std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// xoshiro256**: fast, high-quality 64-bit generator.
class Rng {
 public:
  explicit Rng(std::uint64_t seed);

  std::uint64_t next_u64() {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform in [0, bound). bound must be > 0. Unbiased (rejection).
  /// Inline, so a constant bound's modulo compiles to a multiply.
  std::uint64_t uniform(std::uint64_t bound) {
    // Lemire-style rejection to avoid modulo bias: a draw below the
    // threshold 2^64 mod bound is drawn again. The threshold is below
    // bound, so it (and its division) is needed only for a draw below
    // bound.
    std::uint64_t r = next_u64();
    if (r < bound) {
      const std::uint64_t threshold = -bound % bound;
      while (r < threshold) r = next_u64();
    }
    return r % bound;
  }

  /// Uniform in [lo, hi] inclusive.
  std::int64_t uniform_range(std::int64_t lo, std::int64_t hi);

  /// Uniform double in [0, 1).
  double uniform01();

  /// Exponential with the given mean (> 0).
  double exponential(double mean);

  /// Standard normal via Box-Muller (deterministic pairing).
  double normal(double mean = 0.0, double stddev = 1.0);

  /// Bernoulli trial.
  bool chance(double p);

  /// Split off an independent stream (for per-node / per-process RNGs).
  Rng split();

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> s_;
  bool have_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

}  // namespace ess
