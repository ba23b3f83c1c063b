// Shared scaffolding for the bench targets.
//
// Each target reruns the corresponding experiment at the paper's scale,
// prints the figure (ASCII) and the series the paper reports, writes the
// underlying data as CSV under ./bench_out/, and prints paper-vs-measured
// checks for the shape properties the reproduction targets. ESS_FAST=1
// shrinks the experiments for smoke runs.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "core/study.hpp"

namespace ess::bench {

inline bool fast_mode() {
  const char* v = std::getenv("ESS_FAST");
  return v != nullptr && v[0] == '1';
}

/// ESS_PROGRESS=1 streams live characterization snapshots to stderr every
/// 60 s of sim-time while an experiment runs (see telemetry/snapshot.hpp).
inline bool progress_mode() {
  const char* v = std::getenv("ESS_PROGRESS");
  return v != nullptr && v[0] == '1';
}

/// ESS_FAST=1 cuts the runs less than core::fast_study_config() (the
/// golden-capture preset) does: on that one 6 of the suite's 21 targets
/// lose the paper shape they check (see core/presets.hpp).
inline core::StudyConfig study_config() {
  core::StudyConfig cfg;
  if (progress_mode()) {
    cfg.progress_period = sec(60);
  }
  if (fast_mode()) {
    cfg.baseline_duration = sec(300);
    cfg.ppm.steps = 12;
    cfg.wavelet.reference_count = 1;
    cfg.wavelet.search_coarse = 16;
    cfg.wavelet.search_mid = 8;
    cfg.wavelet.search_fine = 4;
    cfg.nbody.steps = 4;
  }
  return cfg;
}

inline std::string out_dir() {
  const std::string dir = "bench_out";
  std::filesystem::create_directories(dir);
  return dir;
}

struct CheckLine {
  std::string what;
  bool ok;
  std::string detail;
};

/// Every check() line this process has printed, in order.
inline std::vector<CheckLine>& check_log() {
  static std::vector<CheckLine> log;
  return log;
}

/// One paper-vs-measured line; returns `ok` so callers can aggregate.
inline bool check(const char* what, bool ok, const std::string& detail) {
  std::printf("  [%s] %-58s %s\n", ok ? "OK" : "!!", what, detail.c_str());
  check_log().push_back({what, ok, detail});
  return ok;
}

inline std::string fmt(const char* spec, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, spec, v);
  return buf;
}

/// Median wall seconds over `reps` runs of `fn`. The host-timing gates read
/// the median, not the best run: on a shared host one lucky run of either
/// side of a ratio can pass or fail a gate on its own.
template <typename Fn>
double median_seconds(int reps, Fn&& fn) {
  std::vector<double> secs;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    secs.push_back(std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - t0)
                       .count());
  }
  std::sort(secs.begin(), secs.end());
  return secs.empty() ? 0.0 : secs[secs.size() / 2];
}

}  // namespace ess::bench
