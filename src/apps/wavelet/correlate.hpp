// The registration search's inner kernel, shared by the wavelet app and
// its equivalence test.
#pragma once

#include <cstddef>
#include <cstdint>

#include "apps/wavelet/wavelet2d.hpp"

namespace ess::apps::wavelet {

/// Correlation (sum of products) of two planes restricted to their
/// top-left m x m block, with the candidate shifted by (dr, dc)
/// (periodic). Returns the sum and counts flops.
///
/// Each row's periodic column range is two contiguous runs: columns
/// c < m - c0 read b's columns c0 + c, the rest read c - (m - c0), where
/// c0 is dc wrapped into [0, m). Columns are still summed in order 0..m-1,
/// so the sum rounds exactly as a per-element `(c + dc) mod m` loop does.
inline double correlate(const Plane& a, const Plane& b, int m, int dr, int dc,
                        std::uint64_t& flops) {
  // Floored modulo: shifts accumulated across pyramid levels can exceed m
  // in magnitude in either direction.
  const auto wrap = [m](int x) { return ((x % m) + m) % m; };
  const int c0 = wrap(dc);
  const int split = m - c0;
  const auto row = [](const Plane& p, int r) {
    return p.data().data() + static_cast<std::size_t>(r) * p.size();
  };
  double sum = 0;
  for (int r = 0; r < m; ++r) {
    const double* ar = row(a, r);
    const double* br = row(b, wrap(r + dr));
    for (int c = 0; c < split; ++c) sum += ar[c] * br[c0 + c];
    for (int c = split; c < m; ++c) sum += ar[c] * br[c - split];
  }
  flops += static_cast<std::uint64_t>(m) * m * 2;
  return sum;
}

}  // namespace ess::apps::wavelet
