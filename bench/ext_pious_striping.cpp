// Extension E-pious: parallel file service striping sweep.
//
// The Beowulf prototype "can use PIOUS as a parallel file system for
// coordinated I/O activities". This extension measures how aggregate read
// bandwidth of a striped file scales with the number of data servers under
// the same disk and Ethernet models used for the study.
#include <cstdio>

#include "bench/common.hpp"
#include "bench/targets.hpp"
#include "cluster/pious.hpp"
#include "util/csv.hpp"

int ext_pious_striping() {
  using namespace ess;
  CsvWriter csv(bench::out_dir() + "/ext_pious.csv");
  csv.header({"servers", "read_mb_per_s"});

  // A 16 MB file exceeds each server's 3 MB buffer cache, so the reads
  // are disk-bound per server; striping parallelizes the disks while the
  // dual 10 Mb/s Ethernet (~2.3 MB/s effective) caps the aggregate.
  std::printf("PIOUS-lite striped read bandwidth (16 MB file, 64 KB reads)\n");
  std::printf("  servers   MB/s\n");

  double first_bw = 0;
  double best_bw = 0;
  for (const int servers : {1, 2, 4, 8}) {
    cluster::PiousConfig cfg;
    cfg.servers = servers;
    cfg.stripe_unit = 16 * 1024;
    cluster::PiousService svc(cfg);
    const auto f = svc.create("scene");
    for (std::uint64_t off = 0; off < 16 * 1024 * 1024;
         off += 256 * 1024) {
      svc.write(f, off, 256 * 1024, {});
      svc.engine().run();
    }
    const double bw = svc.timed_read_bandwidth(f, 64 * 1024);
    std::printf("  %4d      %6.2f\n", servers, bw);
    csv.row(servers, bw);
    if (servers == 1) first_bw = bw;
    best_bw = std::max(best_bw, bw);
  }

  std::printf("\nChecks:\n");
  bool ok = true;
  ok &= bench::check("striping improves aggregate bandwidth",
                     best_bw > first_bw * 1.2,
                     bench::fmt("best/1-server = %.2fx", best_bw / first_bw));
  ok &= bench::check(
      "the 10 Mb/s Ethernet eventually caps scaling",
      best_bw < 2.6,  // two bonded channels ≈ 2.3 MB/s effective
      bench::fmt("best %.2f MB/s", best_bw));
  return ok ? 0 : 1;
}
