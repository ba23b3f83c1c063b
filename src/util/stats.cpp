#include "util/stats.hpp"

#include <cmath>
#include <stdexcept>

namespace ess {

void OnlineStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double OnlineStats::variance() const {
  return n_ ? m2_ / static_cast<double>(n_) : 0.0;
}

double OnlineStats::stddev() const { return std::sqrt(variance()); }

void Histogram::add(std::int64_t key, std::uint64_t weight) {
  cells_[key] += weight;
  total_ += weight;
}

void Histogram::merge(const Histogram& other) {
  for (const auto& [key, count] : other.cells_) cells_[key] += count;
  total_ += other.total_;
}

std::uint64_t Histogram::count(std::int64_t key) const {
  const auto it = cells_.find(key);
  return it == cells_.end() ? 0 : it->second;
}

double Histogram::fraction(std::int64_t key) const {
  return total_ == 0 ? 0.0
                     : static_cast<double>(count(key)) /
                           static_cast<double>(total_);
}

std::vector<std::int64_t> Histogram::keys() const {
  std::vector<std::int64_t> out;
  out.reserve(cells_.size());
  for (const auto& [k, v] : cells_) out.push_back(k);
  return out;
}

std::vector<std::pair<std::int64_t, std::uint64_t>> Histogram::top(
    std::size_t k) const {
  std::vector<std::pair<std::int64_t, std::uint64_t>> all(cells_.begin(),
                                                          cells_.end());
  std::sort(all.begin(), all.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  if (all.size() > k) all.resize(k);
  return all;
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  if (p < 0.0 || p > 100.0) throw std::invalid_argument("percentile p");
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

}  // namespace ess
