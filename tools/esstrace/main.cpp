// esstrace — inspect, convert, filter, characterize and compare the trace
// files this reproduction captures.
//
//   esstrace info    trace.esst
//   esstrace cat     trace.esst                  > trace.csv
//   esstrace convert trace.csv  trace.esst       (formats by extension)
//   esstrace filter  in.esst out.esst --after 50 --before 120 --writes
//   esstrace stats   trace.esst --jobs 8
//   esstrace diff    golden.esst new.esst --pct-tol 2
//   esstrace verify  trace.esst           (exit 0 clean / 1 lossy / 2 bad)
//   esstrace merge   node1.esst node2.esst cluster.esst
//   esstrace capture baseline golden.esst (reduced-scale study run)
#include <cfloat>
#include <climits>
#include <cstdint>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "commands.hpp"
#include "exec/thread_pool.hpp"
#include "util/sim_time.hpp"

namespace {

int usage(std::ostream& os, int code) {
  os << "usage: esstrace <command> [args]\n"
        "  info    FILE                 header, chunk index, salvage state\n"
        "  cat     FILE                 any trace format -> CSV on stdout\n"
        "  convert IN OUT               convert (format from OUT extension:\n"
        "                               .esst | .csv)\n"
        "  filter  IN OUT [options]     keep matching records; ESST chunk\n"
        "                               index prunes without decoding\n"
        "          --after S --before S      time range, seconds\n"
        "          --sector-min N --sector-max N\n"
        "          --reads | --writes\n"
        "  stats   FILE [--jobs N]      streaming characterization, chunks\n"
        "                               fanned across N workers; output is\n"
        "                               identical at any worker count\n"
        "  diff    A B [options]        compare characterizations\n"
        "          --pct-tol P   percentage-point tolerance (default 2)\n"
        "          --rel-tol R   relative tolerance on scalars (default "
        "0.05)\n"
        "          --topk K      hot-sector set size (default 5)\n"
        "          --overlap F   min top-K overlap fraction (default 0.6)\n"
        "          --jobs N      scan workers per side\n"
        "  verify  FILE [--jobs N]      integrity pass over an ESST capture\n"
        "                               exit 0 = clean, 1 = salvaged/lossy,\n"
        "                               2 = unreadable\n"
        "  merge   IN... OUT [--jobs N] k-way merge of per-node captures\n"
        "                               into one multi-node file, ordered\n"
        "                               by (timestamp, node id); drop\n"
        "                               counts aggregate into the trailer.\n"
        "                               Same bytes at any --jobs value.\n"
        "                               Each IN may be a file, a directory\n"
        "                               (every *.esst inside, name order)\n"
        "                               or a * / ? glob\n"
        "  capture EXPERIMENT OUT.esst  run one reduced-scale experiment\n"
        "                               (baseline|ppm|wavelet|nbody|combined)\n"
        "                               and write its ESST capture\n"
        "  capture-all DIR [--jobs N]   regenerate every canonical capture:\n"
        "                               DIR/<experiment>.esst plus the\n"
        "                               2-node cluster goldens\n"
        "                               (cluster_node*.esst, cluster.esst)\n"
        "                               in parallel; output is bit-identical\n"
        "                               to serial captures\n"
        "  capture-pdes DIR [--nodes N] [--shards S] [--jobs N]\n"
        "                               run the combined parallel workload\n"
        "                               on the sharded PDES machine\n"
        "                               (default 16 nodes), write one\n"
        "                               capture per node plus the merged\n"
        "                               DIR/pdes.esst — byte-identical at\n"
        "                               any shard/job count\n"
        "  --jobs N defaults to the ESS_JOBS environment variable when set,\n"
        "  else the hardware thread count; results never depend on it\n";
  return code;
}

bool need_value(int argc, char** argv, int& i, const char* flag,
                std::string& out) {
  if (i + 1 >= argc) {
    std::cerr << "esstrace: " << flag << " needs a value\n";
    return false;
  }
  out = argv[++i];
  return true;
}

bool worker_count(const char* flag, const std::string& v, std::size_t& out) {
  if (const auto n = ess::exec::parse_worker_count(v)) {
    out = *n;
    return true;
  }
  std::cerr << "esstrace: invalid " << flag << " value '" << v
            << "' (want an integer 0.." << ess::exec::kMaxWorkers
            << "; 0 = auto)\n";
  return false;
}

/// A digits-only flag value (exec::parse_digits) no larger than `max`.
bool count_value(const char* flag, const std::string& v, std::uint64_t max,
                 std::uint64_t& out) {
  const auto n = ess::exec::parse_digits(v);
  if (n && *n <= max) {
    out = *n;
    return true;
  }
  std::cerr << "esstrace: invalid " << flag << " value '" << v
            << "' (want an integer 0.." << max << ")\n";
  return false;
}

/// A real flag value (exec::parse_real: plain decimal, finite,
/// non-negative) no larger than `max`.
bool real_value(const char* flag, const std::string& v, double max,
                double& out) {
  const auto x = ess::exec::parse_real(v);
  if (x && *x <= max) {
    out = *x;
    return true;
  }
  std::cerr << "esstrace: invalid " << flag << " value '" << v
            << "' (want a number 0.." << max << ")\n";
  return false;
}

/// Seconds on the command line, as simulated microseconds.
bool seconds_value(const char* flag, const std::string& v,
                   ess::SimTime& out) {
  // Below 2^64 microseconds, so the conversion cannot overflow.
  constexpr double kMaxSeconds = 1.8e13;
  double s = 0;
  if (!real_value(flag, v, kMaxSeconds, s)) return false;
  out = static_cast<ess::SimTime>(s * 1e6);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage(std::cerr, 2);
  const std::string cmd = argv[1];
  if (cmd == "help" || cmd == "--help" || cmd == "-h") {
    return usage(std::cout, 0);
  }

  std::vector<std::string> paths;
  ess::telemetry::EsstView::Filter filter;
  ess::telemetry::DiffTolerance tol;
  std::size_t jobs = 0;
  int nodes = 16;
  std::size_t shards = 0;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string v;
    if (arg == "--jobs") {
      if (!need_value(argc, argv, i, "--jobs", v)) return 2;
      if (!worker_count("--jobs", v, jobs)) return usage(std::cerr, 2);
    } else if (arg == "--nodes") {
      if (!need_value(argc, argv, i, "--nodes", v)) return 2;
      std::uint64_t n = 0;
      if (!count_value("--nodes", v, INT_MAX, n)) return usage(std::cerr, 2);
      nodes = static_cast<int>(n);
    } else if (arg == "--shards") {
      if (!need_value(argc, argv, i, "--shards", v)) return 2;
      if (!worker_count("--shards", v, shards)) return usage(std::cerr, 2);
    } else if (arg == "--after") {
      if (!need_value(argc, argv, i, "--after", v)) return 2;
      if (!seconds_value("--after", v, filter.ts_min)) {
        return usage(std::cerr, 2);
      }
    } else if (arg == "--before") {
      if (!need_value(argc, argv, i, "--before", v)) return 2;
      if (!seconds_value("--before", v, filter.ts_max)) {
        return usage(std::cerr, 2);
      }
    } else if (arg == "--sector-min") {
      if (!need_value(argc, argv, i, "--sector-min", v)) return 2;
      if (!count_value("--sector-min", v, UINT64_MAX, filter.sector_min)) {
        return usage(std::cerr, 2);
      }
    } else if (arg == "--sector-max") {
      if (!need_value(argc, argv, i, "--sector-max", v)) return 2;
      if (!count_value("--sector-max", v, UINT64_MAX, filter.sector_max)) {
        return usage(std::cerr, 2);
      }
    } else if (arg == "--reads") {
      filter.rw = 0;
    } else if (arg == "--writes") {
      filter.rw = 1;
    } else if (arg == "--pct-tol") {
      if (!need_value(argc, argv, i, "--pct-tol", v)) return 2;
      if (!real_value("--pct-tol", v, DBL_MAX, tol.pct_points)) {
        return usage(std::cerr, 2);
      }
    } else if (arg == "--rel-tol") {
      if (!need_value(argc, argv, i, "--rel-tol", v)) return 2;
      if (!real_value("--rel-tol", v, DBL_MAX, tol.scalar_rel)) {
        return usage(std::cerr, 2);
      }
    } else if (arg == "--topk") {
      if (!need_value(argc, argv, i, "--topk", v)) return 2;
      std::uint64_t k = 0;
      if (!count_value("--topk", v, SIZE_MAX, k)) return usage(std::cerr, 2);
      tol.topk = static_cast<std::size_t>(k);
    } else if (arg == "--overlap") {
      if (!need_value(argc, argv, i, "--overlap", v)) return 2;
      // A fraction: above 1, no pair of top-K sets could pass.
      if (!real_value("--overlap", v, 1.0, tol.topk_min_overlap)) {
        return usage(std::cerr, 2);
      }
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "esstrace: unknown option " << arg << "\n";
      return usage(std::cerr, 2);
    } else {
      paths.push_back(arg);
    }
  }

  using namespace ess::esstrace;
  try {
    if (cmd == "info" && paths.size() == 1) {
      return cmd_info(paths[0], std::cout, std::cerr);
    }
    if (cmd == "cat" && paths.size() == 1) {
      return cmd_cat(paths[0], std::cout, std::cerr);
    }
    if (cmd == "convert" && paths.size() == 2) {
      return cmd_convert(paths[0], paths[1], std::cout, std::cerr);
    }
    if (cmd == "filter" && paths.size() == 2) {
      return cmd_filter(paths[0], paths[1], filter, std::cout, std::cerr);
    }
    if (cmd == "stats" && paths.size() == 1) {
      return cmd_stats(paths[0], std::cout, std::cerr, jobs);
    }
    if (cmd == "diff" && paths.size() == 2) {
      return cmd_diff(paths[0], paths[1], tol, std::cout, std::cerr, jobs);
    }
    if (cmd == "verify" && paths.size() == 1) {
      return cmd_verify(paths[0], std::cout, std::cerr, jobs);
    }
    if (cmd == "merge" && paths.size() >= 2) {
      const std::vector<std::string> inputs(paths.begin(), paths.end() - 1);
      return cmd_merge(inputs, paths.back(), jobs, std::cout, std::cerr);
    }
    if (cmd == "capture" && paths.size() == 2) {
      return cmd_capture(paths[0], paths[1], std::cout, std::cerr);
    }
    if (cmd == "capture-all" && paths.size() == 1) {
      return cmd_capture_all(paths[0], jobs, std::cout, std::cerr);
    }
    if (cmd == "capture-pdes" && paths.size() == 1) {
      return cmd_capture_pdes(paths[0], nodes, shards, jobs, std::cout,
                              std::cerr);
    }
  } catch (const std::exception& e) {
    std::cerr << "esstrace: " << e.what() << "\n";
    return 2;
  }
  return usage(std::cerr, 2);
}
