// Small statistics helpers used by the trace-analysis layer.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <map>
#include <vector>

namespace ess {

/// Streaming mean/variance/min/max (Welford's algorithm).
class OnlineStats {
 public:
  void add(double x);

  std::size_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  double variance() const;  // population variance
  double stddev() const;
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }
  double sum() const { return sum_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

/// Sparse integer-keyed histogram (e.g., request size in bytes -> count).
class Histogram {
 public:
  void add(std::int64_t key, std::uint64_t weight = 1);

  /// Cell-wise sum with another histogram: equivalent to having added the
  /// other histogram's samples to this one.
  void merge(const Histogram& other);

  std::uint64_t count(std::int64_t key) const;
  std::uint64_t total() const { return total_; }
  double fraction(std::int64_t key) const;

  /// Keys in ascending order.
  std::vector<std::int64_t> keys() const;

  /// (key, count) pairs sorted by descending count; ties by ascending key.
  std::vector<std::pair<std::int64_t, std::uint64_t>> top(std::size_t k) const;

  const std::map<std::int64_t, std::uint64_t>& cells() const { return cells_; }

 private:
  std::map<std::int64_t, std::uint64_t> cells_;
  std::uint64_t total_ = 0;
};

/// Percentile of a data set; interpolates between order statistics.
/// p in [0, 100]. Returns 0 for an empty input.
double percentile(std::vector<double> values, double p);

}  // namespace ess
