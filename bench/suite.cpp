// bench/suite — the paper suite in one process.
//
// Runs the table, figure, ablation and extension targets of
// bench/targets.hpp in order, in this process, so the phase-A numerics
// cache (core/numerics_cache.hpp) computes each application's numerics
// once for all of them. Each target's own output is framed by a
// "== NAME ==" line before it and an [OK]/[!!] line with its wall time
// after it; the cache's lookup counts close the run. Exit code 0 iff every
// selected target returned 0.
//
//   suite [--fast] [--only NAME]... [--json PATH]
//
// --fast sets ESS_FAST=1 (the reduced configuration CI runs); --only runs
// just the named targets (repeatable); --json writes each target's name,
// exit code, wall time and check lines.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iterator>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "bench/targets.hpp"
#include "core/numerics_cache.hpp"

namespace {

using namespace ess;

struct Target {
  const char* name;
  int (*fn)();
};

const Target kTargets[] = {
    {"fig1_baseline", fig1_baseline},
    {"fig2_ppm", fig2_ppm},
    {"fig3_wavelet", fig3_wavelet},
    {"fig4_nbody", fig4_nbody},
    {"fig5_combined_size", fig5_combined_size},
    {"fig6_combined_sectors", fig6_combined_sectors},
    {"fig7_spatial", fig7_spatial},
    {"fig8_temporal", fig8_temporal},
    {"table1_rw_mix", table1_rw_mix},
    {"ablation_trace_overhead", ablation_trace_overhead},
    {"ablation_readahead", ablation_readahead},
    {"ablation_elevator", ablation_elevator},
    {"ablation_memory", ablation_memory},
    {"ablation_atime", ablation_atime},
    {"ext_synthetic_match", ext_synthetic_match},
    {"ext_pious_striping", ext_pious_striping},
    {"ext_cluster_average", ext_cluster_average},
    {"ext_replay_tuning", ext_replay_tuning},
    {"ext_region_decomposition", ext_region_decomposition},
    {"ext_checkpoint_class", ext_checkpoint_class},
    {"ext_parallel_machine", ext_parallel_machine},
};

struct Outcome {
  const char* name;
  int exit_code;
  double wall_seconds;
  std::size_t first_check, end_check;  // this target's bench::check_log()
};

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string quote(const std::string& s) {
  std::string q = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      q += '\\';
      q += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      q += ' ';
    } else {
      q += c;
    }
  }
  return q + '"';
}

bool write_json(const std::string& path, const std::vector<Outcome>& runs,
                double total_wall) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f,
               "{\"fast_mode\":%s,\"total_wall_seconds\":%.6g,"
               "\"targets\":[",
               bench::fast_mode() ? "true" : "false", total_wall);
  const auto& log = bench::check_log();
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const Outcome& o = runs[i];
    std::fprintf(f,
                 "%s{\"name\":%s,\"exit_code\":%d,\"wall_seconds\":%.6g,"
                 "\"checks\":[",
                 i == 0 ? "" : ",", quote(o.name).c_str(), o.exit_code,
                 o.wall_seconds);
    for (std::size_t c = o.first_check; c < o.end_check; ++c) {
      std::fprintf(f, "%s{\"what\":%s,\"ok\":%s,\"detail\":%s}",
                   c == o.first_check ? "" : ",",
                   quote(log[c].what).c_str(), log[c].ok ? "true" : "false",
                   quote(log[c].detail).c_str());
    }
    std::fprintf(f, "]}");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: suite [--fast] [--only NAME]... [--json PATH]\n"
               "targets:");
  for (const Target& t : kTargets) std::fprintf(stderr, " %s", t.name);
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> only;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--fast") {
      setenv("ESS_FAST", "1", 1);
    } else if (arg == "--only" && i + 1 < argc) {
      only.emplace_back(argv[++i]);
    } else if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      return usage();
    }
  }
  for (const auto& name : only) {
    if (std::none_of(std::begin(kTargets), std::end(kTargets),
                     [&](const Target& t) { return name == t.name; })) {
      std::fprintf(stderr, "suite: unknown target '%s'\n", name.c_str());
      return usage();
    }
  }

  const double t_start = now_seconds();
  std::vector<Outcome> runs;
  int failed = 0;
  for (const Target& t : kTargets) {
    if (!only.empty() &&
        std::find(only.begin(), only.end(), t.name) == only.end()) {
      continue;
    }
    std::printf("== %s ==\n", t.name);
    Outcome o{t.name, 0, 0, bench::check_log().size(), 0};
    const double t0 = now_seconds();
    try {
      o.exit_code = t.fn();
    } catch (const std::exception& e) {
      std::printf("  !! %s threw: %s\n", t.name, e.what());
      o.exit_code = 1;
    }
    o.wall_seconds = now_seconds() - t0;
    o.end_check = bench::check_log().size();
    failed += o.exit_code != 0;
    std::printf("[%s] %s  exit %d  %.2f s\n", o.exit_code == 0 ? "OK" : "!!",
                t.name, o.exit_code, o.wall_seconds);
    std::fflush(stdout);
    runs.push_back(o);
  }
  const double total_wall = now_seconds() - t_start;

  const auto cache = core::numerics_cache_stats();
  std::printf("\nPhase-A numerics cache (computed / hit / waited):\n");
  const auto row = [](const char* app, const core::CacheCounts& c) {
    std::printf("  %-8s %4llu %4llu %4llu\n", app,
                static_cast<unsigned long long>(c.computed),
                static_cast<unsigned long long>(c.hit),
                static_cast<unsigned long long>(c.waited));
  };
  row("ppm", cache.ppm);
  row("wavelet", cache.wavelet);
  row("nbody", cache.nbody);

  if (!json_path.empty() &&
      !write_json(json_path, runs, total_wall)) {
    std::fprintf(stderr, "suite: cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::printf("\n%s: %zu target(s), %d failed, %.2f s%s%s\n",
              failed == 0 ? "PASS" : "FAIL", runs.size(), failed, total_wall,
              json_path.empty() ? "" : "; ", json_path.c_str());
  return failed == 0 ? 0 : 1;
}
