// Drives the esstrace command implementations (tools/esstrace/commands.cpp)
// directly with temp files — the same code paths the binary's main() calls.
#include "commands.hpp"

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "exec/thread_pool.hpp"
#include "fault/fault.hpp"
#include "telemetry/esst.hpp"
#include "telemetry/esst_view.hpp"
#include "trace/io.hpp"

namespace ess::esstrace {
namespace {

trace::TraceSet sample(std::size_t n = 120) {
  trace::TraceSet ts("cli-sample", 2);
  for (std::size_t i = 0; i < n; ++i) {
    trace::Record r;
    r.timestamp = sec(static_cast<std::uint64_t>(i));
    r.sector = static_cast<std::uint32_t>(40'000 + (i % 10) * 5000);
    r.size_bytes = (i % 4 == 0) ? 4096 : 1024;
    r.is_write = static_cast<std::uint8_t>(i % 5 != 0);
    r.outstanding = static_cast<std::uint16_t>(i % 3);
    ts.add(r);
  }
  // CSV carries no duration field (readers fall back to the record span),
  // so keep the authored duration equal to the span for cross-format tests.
  ts.set_duration(sec(n - 1));
  return ts;
}

std::string tmp_path(const std::string& name) {
  // Per-process names: `ctest -j` runs each test of this fixture as its own
  // process, and concurrent SetUp/TearDown must not share files.
  static const std::string tag =
      "ess_cli_" + std::to_string(::getpid()) + "_";
  return ::testing::TempDir() + "/" + tag + name;
}

std::string slurp(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  std::stringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

class EsstraceCli : public ::testing::Test {
 protected:
  void SetUp() override {
    csv_ = tmp_path("cli_in.csv");
    esst_ = tmp_path("cli_in.esst");
    trace::write_csv_file(sample(), csv_);
    telemetry::write_esst_file(sample(), esst_);
  }
  void TearDown() override {
    std::remove(csv_.c_str());
    std::remove(esst_.c_str());
  }

  std::string csv_;
  std::string esst_;
};

// A file in the retired flat "ESSTRC01" format: its magic, then a header
// and records the tolerant CSV reader would skip as malformed rows.
void write_retired_binary(const std::string& path) {
  std::ofstream f(path, std::ios::binary);
  f << "ESSTRC01" << std::string(40, '\x01');
}

TEST_F(EsstraceCli, SniffsByMagicNotExtension) {
  EXPECT_EQ(sniff_format(esst_), TraceFormat::kEsst);
  EXPECT_EQ(sniff_format(csv_), TraceFormat::kCsv);
  const auto misnamed = tmp_path("cli_in_misnamed.csv");
  telemetry::write_esst_file(sample(), misnamed);
  EXPECT_EQ(sniff_format(misnamed), TraceFormat::kEsst);
  EXPECT_EQ(format_for_extension(misnamed), TraceFormat::kCsv);  // name lies
  write_retired_binary(misnamed);
  try {
    sniff_format(misnamed);
    ADD_FAILURE() << "the retired ESSTRC01 magic was not refused";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("retired ESSTRC01"),
              std::string::npos)
        << e.what();
  }
  std::remove(misnamed.c_str());
}

TEST_F(EsstraceCli, LoadAnyReadsEveryFormat) {
  for (const auto& path : {csv_, esst_}) {
    const auto ts = load_any(path);
    EXPECT_EQ(ts.size(), sample().size()) << path;
  }
  // The retired flat binary format is refused with exit 2, never read as
  // an empty CSV trace.
  const auto bin = tmp_path("cli_in.bin");
  write_retired_binary(bin);
  EXPECT_THROW(load_any(bin), std::runtime_error);
  std::ostringstream out, err;
  EXPECT_EQ(cmd_cat(bin, out, err), 2);
  EXPECT_EQ(cmd_stats(bin, out, err), 2);
  EXPECT_TRUE(out.str().empty()) << out.str();
  EXPECT_NE(err.str().find("esstrace cat: "), std::string::npos) << err.str();
  EXPECT_NE(err.str().find("esstrace stats: "), std::string::npos)
      << err.str();
  EXPECT_NE(err.str().find("retired ESSTRC01"), std::string::npos)
      << err.str();
  std::remove(bin.c_str());
}

TEST_F(EsstraceCli, CatEmitsTheSameCsvForBothFormats) {
  std::ostringstream from_csv, from_esst, err;
  EXPECT_EQ(cmd_cat(csv_, from_csv, err), 0);
  EXPECT_EQ(cmd_cat(esst_, from_esst, err), 0);
  EXPECT_EQ(from_csv.str(), from_esst.str());
  EXPECT_EQ(from_csv.str(), slurp(csv_));
}

TEST_F(EsstraceCli, ConvertRoundTripsCsvByteIdentically) {
  const auto mid = tmp_path("cli_mid.esst");
  const auto back = tmp_path("cli_back.csv");
  std::ostringstream out, err;
  ASSERT_EQ(cmd_convert(csv_, mid, out, err), 0) << err.str();
  ASSERT_EQ(cmd_convert(mid, back, out, err), 0) << err.str();
  EXPECT_EQ(slurp(back), slurp(csv_));
  EXPECT_NE(out.str().find("120 records"), std::string::npos);
  std::remove(mid.c_str());
  std::remove(back.c_str());
}

TEST_F(EsstraceCli, InfoPrintsHeaderAndChunkIndex) {
  std::ostringstream out, err;
  ASSERT_EQ(cmd_info(esst_, out, err), 0) << err.str();
  const auto text = out.str();
  EXPECT_NE(text.find("cli-sample"), std::string::npos);
  EXPECT_NE(text.find("records         120"), std::string::npos);
  EXPECT_NE(text.find("index           ok"), std::string::npos);
  EXPECT_NE(text.find("chunks"), std::string::npos);
}

TEST_F(EsstraceCli, InfoRejectsNonEsstInput) {
  std::ostringstream out, err;
  EXPECT_EQ(cmd_info(csv_, out, err), 2);
  EXPECT_NE(err.str().find("not an ESST file"), std::string::npos);
}

TEST_F(EsstraceCli, MissingFileFailsWithExitCode2) {
  std::ostringstream out, err;
  EXPECT_EQ(cmd_cat(tmp_path("no_such_file.esst"), out, err), 2);
  EXPECT_FALSE(err.str().empty());
}

TEST_F(EsstraceCli, MissingFileErrorNamesThePathOnce) {
  const auto gone = tmp_path("gone.csv");
  {
    std::ostringstream out, err;
    EXPECT_EQ(cmd_cat(gone, out, err), 2);
    EXPECT_EQ(err.str(), "esstrace cat: cannot open " + gone + "\n");
  }
  {
    std::ostringstream out, err;
    EXPECT_EQ(cmd_verify(gone, out, err), 2);
    EXPECT_EQ(err.str(), "esstrace verify: cannot open " + gone + "\n");
  }
}

TEST_F(EsstraceCli, FilterPrunesChunksThroughTheIndex) {
  // Multi-chunk input so time-range pruning has chunks to skip.
  const auto chunked = tmp_path("cli_chunked.esst");
  telemetry::EsstMeta meta;
  meta.records_per_chunk = 16;
  telemetry::write_esst_file(sample(), chunked, meta);

  const auto out_path = tmp_path("cli_filtered.esst");
  telemetry::EsstView::Filter f;
  f.ts_min = sec(32);
  f.ts_max = sec(47);
  std::ostringstream out, err;
  ASSERT_EQ(cmd_filter(chunked, out_path, f, out, err), 0) << err.str();
  EXPECT_NE(out.str().find("kept 16 records"), std::string::npos);
  EXPECT_NE(out.str().find("index pruned"), std::string::npos);

  const auto kept = telemetry::read_esst_file(out_path);
  EXPECT_EQ(kept.size(), 16u);
  for (const auto& r : kept.records()) {
    EXPECT_GE(r.timestamp, f.ts_min);
    EXPECT_LE(r.timestamp, f.ts_max);
  }
  std::remove(chunked.c_str());
  std::remove(out_path.c_str());
}

TEST_F(EsstraceCli, FilterByRwOnCsvInput) {
  const auto out_path = tmp_path("cli_reads.csv");
  telemetry::EsstView::Filter f;
  f.rw = 0;
  std::ostringstream out, err;
  ASSERT_EQ(cmd_filter(csv_, out_path, f, out, err), 0) << err.str();
  const auto kept = trace::read_csv_file(out_path);
  EXPECT_EQ(kept.size(), 24u);  // every fifth of 120 records is a read
  for (const auto& r : kept.records()) EXPECT_EQ(r.is_write, 0);
  std::remove(out_path.c_str());
}

TEST_F(EsstraceCli, StatsAgreeAcrossFormatsOfTheSameTrace) {
  std::ostringstream a, b, err;
  ASSERT_EQ(cmd_stats(csv_, a, err), 0) << err.str();
  ASSERT_EQ(cmd_stats(esst_, b, err), 0) << err.str();
  // Identical records => identical characterization text below the
  // experiment-name line (CSV input has no embedded name).
  const auto tail = [](const std::string& s) {
    return s.substr(s.find('\n') + 1);
  };
  EXPECT_EQ(tail(a.str()), tail(b.str()));
  EXPECT_NE(a.str().find("reads / writes  24 / 96"), std::string::npos);
  EXPECT_NE(a.str().find("hot sectors"), std::string::npos);
}

TEST_F(EsstraceCli, DiffExitCodesGateOnTolerance) {
  std::ostringstream out, err;
  EXPECT_EQ(cmd_diff(csv_, esst_, {}, out, err), 0) << err.str();
  EXPECT_NE(out.str().find("OK"), std::string::npos);

  // A trace with the mix inverted must fail the default tolerances.
  auto shifted = sample();
  trace::TraceSet inverted("cli-sample", 2);
  for (auto r : shifted.records()) {
    r.is_write = static_cast<std::uint8_t>(1 - r.is_write);
    inverted.add(r);
  }
  inverted.set_duration(shifted.duration());
  const auto bad = tmp_path("cli_inverted.esst");
  telemetry::write_esst_file(inverted, bad);
  std::ostringstream out2;
  EXPECT_EQ(cmd_diff(csv_, bad, {}, out2, err), 1);
  EXPECT_NE(out2.str().find("FAIL"), std::string::npos);

  // ...and pass when the caller loosens them far enough.
  telemetry::DiffTolerance loose;
  loose.pct_points = 100.0;
  loose.scalar_rel = 10.0;
  loose.topk_min_overlap = 0.0;
  std::ostringstream out3;
  EXPECT_EQ(cmd_diff(csv_, bad, loose, out3, err), 0);
  std::remove(bad.c_str());
}

TEST_F(EsstraceCli, DiffReportsMissingInputAsError) {
  std::ostringstream out, err;
  EXPECT_EQ(cmd_diff(csv_, tmp_path("gone.esst"), {}, out, err), 2);
}

// ---- verify: the capture-integrity gate ----

TEST_F(EsstraceCli, VerifyCleanFileExitsZero) {
  std::ostringstream out, err;
  EXPECT_EQ(cmd_verify(esst_, out, err), 0) << err.str();
  EXPECT_NE(out.str().find("verdict         CLEAN"), std::string::npos);
  EXPECT_NE(out.str().find("120 kept"), std::string::npos);
}

TEST_F(EsstraceCli, VerifyLossyCaptureExitsOne) {
  // Intact on disk, but records were dropped upstream at capture time: the
  // trailer says so, and verify refuses to call the file clean.
  const auto path = tmp_path("cli_lossy.esst");
  {
    std::ofstream f(path, std::ios::binary);
    telemetry::EsstWriter w(f, telemetry::EsstMeta{});
    const auto ts = sample();  // keep alive: range-for over a temporary's
    for (const auto& r : ts.records()) w.append(r);  // member dangles
    w.set_dropped_records(9);
    w.finish(ts.duration());
  }
  std::ostringstream out, err;
  EXPECT_EQ(cmd_verify(path, out, err), 1) << err.str();
  EXPECT_NE(out.str().find("LOSSY"), std::string::npos);
  EXPECT_NE(out.str().find("capture drops   9"), std::string::npos);
  std::remove(path.c_str());
}

TEST_F(EsstraceCli, VerifyTruncatedFileExitsOneAsSalvaged) {
  const auto path = tmp_path("cli_salvage.esst");
  telemetry::EsstMeta meta;
  meta.records_per_chunk = 16;
  telemetry::write_esst_file(sample(), path, meta);
  fault::truncate_tail(path, 200);  // index and tail chunks gone
  std::ostringstream out, err;
  EXPECT_EQ(cmd_verify(path, out, err), 1) << err.str();
  EXPECT_NE(out.str().find("SALVAGED"), std::string::npos);
  EXPECT_NE(out.str().find("MISSING/BAD"), std::string::npos);
  std::remove(path.c_str());
}

TEST_F(EsstraceCli, VerifyRejectsNonEsstAndMissingFilesWithTwo) {
  std::ostringstream out, err;
  EXPECT_EQ(cmd_verify(csv_, out, err), 2);
  EXPECT_EQ(cmd_verify(tmp_path("gone.esst"), out, err), 2);
}

// ---- merge: multi-node captures into one v2 file ----

TEST_F(EsstraceCli, MergeProducesAMultiNodeFileStatsBreakDownPerNode) {
  // Two "nodes": the same workload shape with shifted timestamps so
  // records interleave, distinct header node ids.
  const auto n1 = tmp_path("cli_n1.esst");
  const auto n2 = tmp_path("cli_n2.esst");
  const auto base = sample();
  for (int n = 1; n <= 2; ++n) {
    trace::TraceSet ts("cli-cluster", n);
    for (const auto& r : base.records()) {
      auto shifted = r;
      shifted.timestamp += static_cast<SimTime>(n) * 1000;
      ts.add(shifted);
    }
    ts.set_duration(base.duration() + 2000);
    telemetry::EsstMeta meta;
    meta.node_id = n;
    meta.records_per_chunk = 32;  // 8 output chunks: room for 2 parts
    telemetry::write_esst_file(ts, n == 1 ? n1 : n2, meta);
  }
  const auto merged = tmp_path("cli_merged.esst");
  std::ostringstream out, err;
  ASSERT_EQ(cmd_merge({n1, n2}, merged, /*jobs=*/2, out, err), 0)
      << err.str();
  EXPECT_NE(out.str().find("merged 2 captures"), std::string::npos);
  EXPECT_NE(out.str().find("240 records"), std::string::npos);
  EXPECT_NE(out.str().find("2 parts"), std::string::npos) << out.str();

  // The merged characterization carries per-node rows; single-node stats
  // never print that section.
  std::ostringstream stats, single;
  ASSERT_EQ(cmd_stats(merged, stats, err), 0) << err.str();
  EXPECT_NE(stats.str().find("per node (2 nodes):"), std::string::npos);
  EXPECT_NE(stats.str().find("node   1"), std::string::npos);
  EXPECT_NE(stats.str().find("node   2"), std::string::npos);
  ASSERT_EQ(cmd_stats(esst_, single, err), 0) << err.str();
  EXPECT_EQ(single.str().find("per node"), std::string::npos);

  // And the merged file is a first-class capture: verifiable, diffable
  // against itself, stats identical at any job count.
  std::ostringstream vout;
  EXPECT_EQ(cmd_verify(merged, vout, err), 0) << err.str();
  std::ostringstream j1, j8;
  ASSERT_EQ(cmd_stats(merged, j1, err, 1), 0);
  ASSERT_EQ(cmd_stats(merged, j8, err, 8), 0);
  EXPECT_EQ(j1.str(), j8.str());
  for (const auto& p : {n1, n2, merged}) std::remove(p.c_str());
}

TEST_F(EsstraceCli, MergeExpandsDirectoriesAndGlobsToTheSameBytes) {
  // A directory of per-node captures, merged three ways — explicit file
  // list, the directory itself, and a glob — must produce identical
  // bytes. Re-merging the directory after the first merge left its result
  // inside must not double-count it.
  namespace fs = std::filesystem;
  const std::string dir = tmp_path("cli_merge_dir");
  fs::create_directories(dir);
  std::vector<std::string> parts;
  const auto base = sample();
  for (int n = 1; n <= 3; ++n) {
    trace::TraceSet ts("cli-dir", n);
    for (const auto& r : base.records()) {
      auto shifted = r;
      shifted.timestamp += static_cast<SimTime>(n) * 700;
      ts.add(shifted);
    }
    ts.set_duration(base.duration() + 2100);
    telemetry::EsstMeta meta;
    meta.node_id = n;
    const std::string path = dir + "/node" + std::to_string(n) + ".esst";
    telemetry::write_esst_file(ts, path, meta);
    parts.push_back(path);
  }
  std::ostringstream out, err;
  const auto by_list = tmp_path("cli_by_list.esst");
  ASSERT_EQ(cmd_merge(parts, by_list, 1, out, err), 0) << err.str();
  const auto by_dir = dir + "/merged.esst";
  ASSERT_EQ(cmd_merge({dir}, by_dir, 2, out, err), 0) << err.str();
  const auto by_glob = tmp_path("cli_by_glob.esst");
  ASSERT_EQ(cmd_merge({dir + "/node*.esst"}, by_glob, 1, out, err), 0)
      << err.str();
  EXPECT_EQ(slurp(by_dir), slurp(by_list));
  EXPECT_EQ(slurp(by_glob), slurp(by_list));
  // merged.esst sits inside dir now; expansion must skip it.
  const auto again = tmp_path("cli_by_dir_again.esst");
  ASSERT_EQ(cmd_merge({dir}, again, 1, out, err), 0) << err.str();
  EXPECT_EQ(slurp(again), slurp(by_list));
  // Per-node breakdown in `info` on the multi-node result.
  std::ostringstream info;
  ASSERT_EQ(cmd_info(by_dir, info, err), 0) << err.str();
  EXPECT_NE(info.str().find("nodes           3  (ids 1..3)"),
            std::string::npos);
  EXPECT_NE(info.str().find("node      2"), std::string::npos);
  // Single-node files never print the section.
  std::ostringstream single;
  ASSERT_EQ(cmd_info(esst_, single, err), 0) << err.str();
  EXPECT_EQ(single.str().find("nodes "), std::string::npos);
  fs::remove_all(dir);
  for (const auto& p : {by_list, by_glob, again}) std::remove(p.c_str());
}

TEST_F(EsstraceCli, MergeReportsEmptyDirectoryAndDeadGlob) {
  namespace fs = std::filesystem;
  const std::string dir = tmp_path("cli_merge_empty");
  fs::create_directories(dir);
  std::ostringstream out, err;
  EXPECT_EQ(cmd_merge({dir}, tmp_path("cli_none.esst"), 1, out, err), 2);
  EXPECT_NE(err.str().find("no .esst files"), std::string::npos);
  err.str("");
  EXPECT_EQ(cmd_merge({dir + "/nothing*.esst"}, tmp_path("cli_none.esst"),
                      1, out, err),
            2);
  EXPECT_NE(err.str().find("nothing matches"), std::string::npos);
  fs::remove_all(dir);
}

TEST_F(EsstraceCli, MergeRejectsNonEsstInput) {
  std::ostringstream out, err;
  EXPECT_EQ(cmd_merge({csv_, esst_}, tmp_path("cli_bad_merge.esst"),
                      /*jobs=*/1, out, err),
            2);
  EXPECT_NE(err.str().find("not an ESST file"), std::string::npos);
}

// ---- option parsing: --jobs/--shards values ----
// esstrace parses both options with exec::parse_worker_count; a rejected
// value returns nullopt, so the caller's count stays as it was.

TEST(ParseJobs, AcceptsPlainDecimalCounts) {
  using exec::parse_worker_count;
  EXPECT_EQ(parse_worker_count("0"), 0u);  // 0 = "pick for me"
  EXPECT_EQ(parse_worker_count("1"), 1u);
  EXPECT_EQ(parse_worker_count("64"), 64u);
  EXPECT_EQ(parse_worker_count("007"), 7u);  // leading zeros are still decimal
  EXPECT_EQ(parse_worker_count(std::to_string(exec::kMaxWorkers)),
            exec::kMaxWorkers);
}

TEST(ParseJobs, RejectsMalformedValuesAndLeavesJobsUntouched) {
  for (const char* bad : {"", "-1", "-0", "+4", "4.5", "4x", "x4", " 8",
                          "8 ", "0b101", "0x10", "eight", "1e3"}) {
    EXPECT_FALSE(exec::parse_worker_count(bad)) << "'" << bad << "'";
  }
}

TEST(ParseJobs, RejectsAbsurdCounts) {
  using exec::parse_worker_count;
  EXPECT_FALSE(parse_worker_count(std::to_string(exec::kMaxWorkers + 1)));
  EXPECT_FALSE(parse_worker_count("1000000"));
  EXPECT_FALSE(parse_worker_count("18446744073709551616"));  // > 2^64
  EXPECT_FALSE(parse_worker_count("99999999999999999999999999"));
}

// ---- option parsing: the other numeric flags ----
// --nodes, --sector-min and --sector-max go through exec::parse_digits too:
// the binary must refuse a malformed value with a non-zero exit before it
// touches a file, instead of running with whatever atoi/strtoull salvaged.

int run_esstrace(const std::string& args) {
  const std::string cmd =
      std::string(ESSTRACE_BIN) + " " + args + " > /dev/null 2>&1";
  const int rc = std::system(cmd.c_str());
  return WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
}

TEST(ParseCounts, ParseDigitsTakesTheWholeUint64RangeAndNothingElse) {
  EXPECT_EQ(exec::parse_digits("0"), 0u);
  EXPECT_EQ(exec::parse_digits("18446744073709551615"), UINT64_MAX);
  for (const char* bad : {"", "3x", "-1", "+5", " 7", "7 ", "0x10",
                          "18446744073709551616"}) {
    EXPECT_FALSE(exec::parse_digits(bad)) << "'" << bad << "'";
  }
}

TEST(ParseCounts, NumericFlagsRejectMalformedValuesWithNonZeroExit) {
  const std::string dir = tmp_path("cli_nodes_dir");
  const std::string in = tmp_path("cli_flags_in.esst");
  const std::string out = tmp_path("cli_flags_out.esst");
  telemetry::write_esst_file(sample(), in);
  for (const char* bad : {"3x", "-1", "+5", "''", "18446744073709551616"}) {
    SCOPED_TRACE(bad);
    EXPECT_NE(run_esstrace("capture-pdes " + dir + " --nodes " + bad), 0);
    EXPECT_NE(run_esstrace("filter " + in + " " + out + " --sector-min " +
                           bad),
              0);
    EXPECT_NE(run_esstrace("filter " + in + " " + out + " --sector-max " +
                           bad),
              0);
  }
  EXPECT_FALSE(std::filesystem::exists(dir));  // refused before any run
  // A well-formed range still filters.
  EXPECT_EQ(run_esstrace("filter " + in + " " + out + " --sector-min 40000" +
                         " --sector-max 18446744073709551615"),
            0);
  std::filesystem::remove(in);
  std::filesystem::remove(out);
}

// ---- option parsing: the real-valued flags and --topk ----
// --after, --before, --pct-tol, --rel-tol and --overlap go through
// exec::parse_real, --topk through parse_digits: `diff --overlap x` must
// not drop the top-K gate to 0, nor `--after -5` wrap to a huge time.

TEST(ParseReals, ParseRealTakesPlainFiniteNonNegativeNumbersOnly) {
  EXPECT_EQ(exec::parse_real("0"), 0.0);
  EXPECT_EQ(exec::parse_real("2"), 2.0);
  EXPECT_EQ(exec::parse_real("0.5"), 0.5);
  EXPECT_EQ(exec::parse_real(".5"), 0.5);
  EXPECT_EQ(exec::parse_real("5."), 5.0);
  EXPECT_EQ(exec::parse_real("1e-3"), 1e-3);
  EXPECT_EQ(exec::parse_real("2.5E2"), 250.0);
  for (const char* bad : {"", "x", "-5", "-0", "+1", " 1", "1 ", "1x", "1e",
                          "0x10", "inf", "nan", "1e999", ".", "1..2",
                          "1,5"}) {
    EXPECT_FALSE(exec::parse_real(bad)) << "'" << bad << "'";
  }
}

TEST(ParseReals, RealAndTopkFlagsRejectMalformedValuesWithExitTwo) {
  const std::string in = tmp_path("cli_reals_in.esst");
  const std::string out = tmp_path("cli_reals_out.esst");
  telemetry::write_esst_file(sample(), in);
  const std::string diff = "diff " + in + " " + in;
  const std::string filter = "filter " + in + " " + out;
  for (const char* bad : {"x", "-5", "+1", "''", "nan", "inf", "1e999",
                          "0x10"}) {
    SCOPED_TRACE(bad);
    EXPECT_EQ(run_esstrace(filter + " --after " + bad), 2);
    EXPECT_EQ(run_esstrace(filter + " --before " + bad), 2);
    EXPECT_EQ(run_esstrace(diff + " --pct-tol " + bad), 2);
    EXPECT_EQ(run_esstrace(diff + " --rel-tol " + bad), 2);
    EXPECT_EQ(run_esstrace(diff + " --overlap " + bad), 2);
    EXPECT_EQ(run_esstrace(diff + " --topk " + bad), 2);
  }
  // Past the flag's range: an overlap fraction above 1, a time whose
  // microseconds overflow, a top-K count past 2^64 - 1.
  EXPECT_EQ(run_esstrace(diff + " --overlap 1.5"), 2);
  EXPECT_EQ(run_esstrace(filter + " --after 1e14"), 2);
  EXPECT_EQ(run_esstrace(diff + " --topk 18446744073709551616"), 2);
  EXPECT_EQ(run_esstrace(diff + " --topk 2.5"), 2);
  // Well-formed values still run.
  EXPECT_EQ(run_esstrace(diff + " --pct-tol 2.5 --rel-tol .1 --overlap 1" +
                         " --topk 3"),
            0);
  EXPECT_EQ(run_esstrace(filter + " --after 0.05 --before 1e3"), 0);
  std::filesystem::remove(in);
  std::filesystem::remove(out);
}

// ---- capture: golden-trace generation for the regression gate ----

TEST_F(EsstraceCli, CaptureRejectsUnknownExperiment) {
  std::ostringstream out, err;
  EXPECT_EQ(cmd_capture("fortran", tmp_path("cli_cap.esst"), out, err), 2);
  EXPECT_NE(err.str().find("unknown experiment"), std::string::npos);
}

TEST_F(EsstraceCli, CaptureProducesAVerifiableSelfConsistentFile) {
  const auto path = tmp_path("cli_cap_ppm.esst");
  std::ostringstream out, err;
  ASSERT_EQ(cmd_capture("ppm", path, out, err), 0) << err.str();
  EXPECT_NE(out.str().find("ppm:"), std::string::npos);

  std::ostringstream vout;
  EXPECT_EQ(cmd_verify(path, vout, err), 0) << err.str();
  // A capture diffed against itself is the degenerate regression gate: it
  // must pass with zero failing entries.
  std::ostringstream dout;
  EXPECT_EQ(cmd_diff(path, path, {}, dout, err), 0) << err.str();
  std::remove(path.c_str());
}

// The committed goldens are an exact oracle: a fresh capture-all must
// reproduce all eight files byte for byte. (`esstrace diff` only bounds
// the drift of their characterization.)
TEST(GoldenCaptures, CaptureAllReproducesEveryFileByteForByte) {
  const auto golden =
      std::filesystem::path(__FILE__).parent_path().parent_path() / "golden";
  const std::string dir = tmp_path("golden_fresh");
  std::ostringstream out, err;
  ASSERT_EQ(cmd_capture_all(dir, 0, out, err), 0) << err.str();
  for (const char* name : {"baseline", "ppm", "wavelet", "nbody", "combined",
                           "cluster_node1", "cluster_node2", "cluster"}) {
    const std::string file = std::string(name) + ".esst";
    const std::string want = slurp((golden / file).string());
    ASSERT_FALSE(want.empty()) << "missing golden " << file;
    EXPECT_TRUE(slurp(dir + "/" + file) == want)
        << file << " differs from tests/golden/" << file;
  }
  std::filesystem::remove_all(dir);
}

// `esstrace stats` of every golden, at one and at four jobs, must print
// exactly the committed tests/golden/<exp>.stats text: every consumer
// field, hot-sector tie order included, pinned independently of the
// consumer code that computes it.
TEST(GoldenCaptures, StatsMatchTheCommittedTextAtOneAndFourJobs) {
  const auto golden =
      std::filesystem::path(__FILE__).parent_path().parent_path() / "golden";
  for (const char* name : {"baseline", "ppm", "wavelet", "nbody", "combined",
                           "cluster_node1", "cluster_node2", "cluster"}) {
    const std::string want =
        slurp((golden / (std::string(name) + ".stats")).string());
    ASSERT_FALSE(want.empty()) << "missing golden " << name << ".stats";
    for (const std::size_t jobs : {1u, 4u}) {
      std::ostringstream out, err;
      ASSERT_EQ(cmd_stats((golden / (std::string(name) + ".esst")).string(),
                          out, err, jobs),
                0)
          << err.str();
      EXPECT_EQ(out.str(), want) << name << " at jobs=" << jobs;
    }
  }
}

}  // namespace
}  // namespace ess::esstrace
