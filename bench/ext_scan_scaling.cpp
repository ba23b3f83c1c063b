// Extension E-scan-scaling: zero-copy mmap scan path, serial vs parallel.
//
// The question this bench answers is the one the mmap rework was built
// for: does `--jobs N` actually beat the serial chunk loop now that every
// shard decodes out of one shared EsstView instead of re-opening and
// re-parsing the file? It times both public entry points over a
// >=1M-record capture (ESS_FAST=1 shrinks it):
//
//   scan   — analysis::scan_esst, decode + the full consumer stack;
//   verify — analysis::verify_esst, decode + CRC only, i.e. the raw
//            bandwidth of the zero-copy decode loop with no consumer cost.
//
// at jobs 1/2/4/8, the median of three runs per level. Three gates:
//   * every jobs level is field-identical to the jobs=1 result (always);
//   * jobs=4 is not slower than jobs=1, with generous tolerance for
//     scheduler noise — this must hold even on a single-core container,
//     where the pooled path's only honest cost is thread bookkeeping;
//   * on hosts with >=4 hardware threads, in full mode, the scan must
//     actually win: jobs=4 by >= min(2.0, hw/2), and the best of jobs
//     2/4/8 by >= min(3.0, hw/2).
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "analysis/parallel.hpp"
#include "bench/common.hpp"
#include "telemetry/consumers.hpp"
#include "telemetry/esst.hpp"
#include "trace/trace_set.hpp"
#include "util/rng.hpp"

namespace {

using namespace ess;

/// Two hot bands, a cold tail, bursty sizes — the same shape the paper's
/// captures have, so the consumer stack does representative work and the
/// delta varints span their real width range.
trace::TraceSet synthetic_capture(std::size_t n) {
  trace::TraceSet ts("scan-scaling", 1);
  Rng rng(1996);
  for (std::size_t i = 0; i < n; ++i) {
    trace::Record r;
    r.timestamp = static_cast<SimTime>(i) * 650 +
                  static_cast<SimTime>(rng.uniform(250));
    const auto roll = rng.uniform(100);
    if (roll < 35) {
      r.sector = 120'000 + static_cast<std::uint32_t>(rng.uniform(256));
    } else if (roll < 60) {
      r.sector = 700'000 + static_cast<std::uint32_t>(rng.uniform(256));
    } else {
      r.sector = static_cast<std::uint32_t>(rng.uniform(1'018'080));
    }
    r.size_bytes = 1024u << rng.uniform(5);
    r.is_write = static_cast<std::uint8_t>(rng.uniform(4) != 0);
    r.outstanding = static_cast<std::uint16_t>(rng.uniform(8));
    ts.add(r);
  }
  ts.set_duration(static_cast<SimTime>(n) * 650 + sec(1));
  return ts;
}

bool same_scan(const telemetry::StreamSummary::Result& a,
               const telemetry::StreamSummary::Result& b) {
  if (a.records != b.records || a.reads != b.reads || a.writes != b.writes ||
      a.read_pct != b.read_pct ||
      a.requests_per_sec != b.requests_per_sec ||
      a.max_request_bytes != b.max_request_bytes ||
      a.size_pct != b.size_pct || a.band_pct != b.band_pct ||
      a.hot_exact != b.hot_exact || a.dropped_records != b.dropped_records ||
      a.lossy != b.lossy || a.hot.size() != b.hot.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.hot.size(); ++i) {
    if (a.hot[i].sector != b.hot[i].sector ||
        a.hot[i].count != b.hot[i].count ||
        a.hot[i].error != b.hot[i].error) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main() {
  using namespace ess;
  // Full mode is sized so the byte-weighted sharder really fans out
  // (several shards above its per-shard floor); the smoke capture sits
  // below the floor on purpose — the not-slower gate then proves small
  // captures are not shattered into shards that cost more than they save.
  const std::size_t records = bench::fast_mode() ? 200'000 : 4'000'000;
  const std::string path = bench::out_dir() + "/scan_scaling.esst";

  std::printf("Building %zu-record capture...\n", records);
  telemetry::write_esst_file(synthetic_capture(records), path);
  const auto file_bytes = std::filesystem::file_size(path);
  const std::size_t hw = std::thread::hardware_concurrency();
  const double mb = static_cast<double>(file_bytes) / (1024.0 * 1024.0);
  std::printf("Zero-copy scan scaling, %zu records (%.1f MB), %zu core%s:\n",
              records, mb, hw, hw == 1 ? "" : "s");

  const std::string csv_path = bench::out_dir() + "/scan_scaling.csv";
  std::FILE* csv = std::fopen(csv_path.c_str(), "w");
  if (csv != nullptr) {
    std::fprintf(csv, "phase,jobs,seconds,records_per_sec,mb_per_sec\n");
  }

  const std::size_t job_levels[] = {1, 2, 4, 8};
  const int reps = 3;
  bool identical = true;
  double scan_secs[9] = {};    // indexed by jobs
  double verify_secs[9] = {};

  // Warm the page cache once so jobs=1 is not charged for cold I/O.
  (void)analysis::scan_esst(path, 1);

  std::printf("  %-6s %4s %10s %14s %10s\n", "phase", "jobs", "seconds",
              "records/s", "MB/s");
  telemetry::StreamSummary::Result scan_ref;
  telemetry::SalvageReport verify_ref;
  for (const std::size_t jobs : job_levels) {
    telemetry::StreamSummary::Result r;
    const double ss = bench::median_seconds(
        reps, [&] { r = analysis::scan_esst(path, jobs).summary.result(""); });
    telemetry::SalvageReport v;
    const double vs = bench::median_seconds(
        reps, [&] { v = analysis::verify_esst(path, jobs); });
    if (jobs == 1) {
      scan_ref = r;
      verify_ref = v;
    } else {
      identical &= same_scan(r, scan_ref) && v == verify_ref;
    }
    scan_secs[jobs] = ss;
    verify_secs[jobs] = vs;
    std::printf("  %-6s %4zu %10.3f %14.0f %10.1f\n", "scan", jobs, ss,
                records / ss, mb / ss);
    std::printf("  %-6s %4zu %10.3f %14.0f %10.1f\n", "verify", jobs, vs,
                records / vs, mb / vs);
    if (csv != nullptr) {
      std::fprintf(csv, "scan,%zu,%.6f,%.0f,%.1f\n", jobs, ss, records / ss,
                   mb / ss);
      std::fprintf(csv, "verify,%zu,%.6f,%.0f,%.1f\n", jobs, vs,
                   records / vs, mb / vs);
    }
  }
  if (csv != nullptr) std::fclose(csv);

  std::printf("\nChecks:\n");
  bool ok = true;
  ok &= bench::check("all jobs levels identical to serial", identical,
                     identical ? "scan + verify match" : "MISMATCH");
  ok &= bench::check("serial scan saw every record",
                     scan_ref.records == records,
                     bench::fmt("%.0f records", double(scan_ref.records)));
  ok &= bench::check("verify kept every record",
                     verify_ref.records_kept == records &&
                         verify_ref.chunks_lost == 0,
                     bench::fmt("%.0f kept", double(verify_ref.records_kept)));
  // The floor every host must clear: sharing one mapped view means the
  // pooled path has no per-shard setup left to lose, so jobs=4 may trail
  // jobs=1 only by scheduler noise — except when 4 workers timeslice
  // fewer cores, where interleaving four multi-MB summary working sets
  // through one cache is a real (bounded) oversubscription cost. The
  // slack is deliberately generous either way — this is a regression
  // tripwire, not a performance claim.
  const double tol = hw >= 4 ? 1.35 : 2.0;
  char gate[80];
  std::snprintf(gate, sizeof gate,
                "scan jobs=4 not slower than jobs=1 (tolerance %.2fx)", tol);
  ok &= bench::check(gate, scan_secs[4] <= scan_secs[1] * tol,
                     bench::fmt("%.2fx", scan_secs[4] / scan_secs[1]) +
                         " of serial wall");
  std::snprintf(gate, sizeof gate,
                "verify jobs=4 not slower than jobs=1 (tolerance %.2fx)",
                tol);
  ok &= bench::check(gate, verify_secs[4] <= verify_secs[1] * tol,
                     bench::fmt("%.2fx", verify_secs[4] / verify_secs[1]) +
                         " of serial wall");
  if (hw >= 4 && !bench::fast_mode()) {
    const double want = std::min(2.0, static_cast<double>(hw) / 2);
    const double speedup = scan_secs[1] / scan_secs[4];
    ok &= bench::check("jobs=4 scan wins on multi-core host",
                       speedup >= want, bench::fmt("%.2fx", speedup));
    const double best =
        scan_secs[1] / std::min({scan_secs[2], scan_secs[4], scan_secs[8]});
    const double want_best = std::min(3.0, static_cast<double>(hw) / 2);
    ok &= bench::check("best scan speedup over jobs 2/4/8",
                       best >= want_best, bench::fmt("%.2fx best", best));
  } else {
    // Fast mode's capture sits below the sharder's byte floor on purpose
    // (jobs=4 then runs the same serial pass); the win gate needs the
    // full-size capture as well as the cores.
    std::printf("  [--] speedup check skipped (%zu core%s%s)\n", hw,
                hw == 1 ? "" : "s",
                bench::fast_mode() ? ", smoke capture" : "");
  }
  std::filesystem::remove(path);
  return ok ? 0 : 1;
}
