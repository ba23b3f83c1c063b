// The chunk-parallel scan engine and the k-way multi-node merge: results
// identical to serial at any worker count (including over damaged files),
// merges deterministic and equal to the sum of their inputs.
#include "analysis/parallel.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "telemetry/esst.hpp"
#include "telemetry/esst_view.hpp"
#include "util/rng.hpp"

namespace ess::analysis {
namespace {

// The captures these tests write are a few hundred KB — under the
// production per-shard byte floor, which would collapse them to one
// (serial) shard and make every identity property vacuous. Force tiny
// shards so the fan-out path really runs.
const int kForceSharding = [] {
  ::setenv("ESS_SHARD_MIN_BYTES", "1024", 1);
  return 0;
}();

std::string tmp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() /
          ("ess_parallel_" + std::to_string(::getpid()) + "_" + name))
      .string();
}

std::string slurp(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

trace::TraceSet sample_trace(const std::string& name, int node,
                             std::size_t n, std::uint64_t seed) {
  trace::TraceSet ts(name, node);
  Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    trace::Record r;
    r.timestamp = static_cast<SimTime>(i) * 2'000 +
                  static_cast<SimTime>(rng.uniform(500));
    r.sector = static_cast<std::uint32_t>(rng.uniform(1'018'080));
    r.size_bytes = 1024u << rng.uniform(4);
    r.is_write = static_cast<std::uint8_t>(rng.uniform(5) != 0);
    r.outstanding = static_cast<std::uint16_t>(rng.uniform(4));
    ts.add(r);
  }
  ts.set_duration(static_cast<SimTime>(n) * 2'000 + sec(1));
  return ts;
}

/// Small chunks force a real multi-chunk file (here: dozens of chunks)
/// so sharding has something to shard.
void write_chunked(const trace::TraceSet& ts, const std::string& path,
                   std::uint32_t records_per_chunk = 512) {
  telemetry::EsstMeta meta;
  meta.records_per_chunk = records_per_chunk;
  telemetry::write_esst_file(ts, path, meta);
}

void expect_same_result(const telemetry::StreamSummary::Result& a,
                        const telemetry::StreamSummary::Result& b) {
  EXPECT_EQ(a.records, b.records);
  EXPECT_DOUBLE_EQ(a.duration_sec, b.duration_sec);
  EXPECT_EQ(a.reads, b.reads);
  EXPECT_EQ(a.writes, b.writes);
  EXPECT_DOUBLE_EQ(a.read_pct, b.read_pct);
  EXPECT_DOUBLE_EQ(a.requests_per_sec, b.requests_per_sec);
  EXPECT_EQ(a.max_request_bytes, b.max_request_bytes);
  EXPECT_EQ(a.size_pct, b.size_pct);
  EXPECT_EQ(a.band_pct, b.band_pct);
  ASSERT_EQ(a.hot.size(), b.hot.size());
  for (std::size_t i = 0; i < a.hot.size(); ++i) {
    EXPECT_EQ(a.hot[i].sector, b.hot[i].sector);
    EXPECT_EQ(a.hot[i].count, b.hot[i].count);
    EXPECT_EQ(a.hot[i].error, b.hot[i].error);
    EXPECT_DOUBLE_EQ(a.hot[i].per_sec, b.hot[i].per_sec);
  }
  EXPECT_EQ(a.hot_exact, b.hot_exact);
  EXPECT_EQ(a.dropped_records, b.dropped_records);
  EXPECT_EQ(a.lossy, b.lossy);
  ASSERT_EQ(a.per_node.size(), b.per_node.size());
  for (std::size_t i = 0; i < a.per_node.size(); ++i) {
    EXPECT_EQ(a.per_node[i].node, b.per_node[i].node);
    EXPECT_EQ(a.per_node[i].records, b.per_node[i].records);
  }
}

/// The scan's independent oracle: every chunk of the capture decoded in
/// order into one StreamSummary on this thread, damaged chunks counted as
/// lost, then the drops and the duration — the plain serial chunk loop,
/// kept here so scan_esst at any job count (1 included) is checked
/// against code it does not share.
ScanResult serial_fold(const std::string& path) {
  const telemetry::EsstView view(path);
  ScanResult out;
  out.experiment = view.meta().experiment;
  out.salvaged = view.salvaged();
  out.capture_dropped = view.capture_dropped();
  out.lost_records = view.scan_losses().records_lost;
  std::vector<trace::Record> recs;
  for (std::size_t i = 0; i < view.chunks().size(); ++i) {
    try {
      view.decode_chunk(i, recs);
      out.summary.on_records(recs.data(), recs.size());
    } catch (const std::runtime_error&) {
      out.lost_records += view.chunks()[i].records;
    }
  }
  out.summary.on_drops(out.capture_dropped + out.lost_records);
  out.summary.on_finish(view.duration());
  return out;
}

void expect_scan_matches_oracle(const std::string& path) {
  const auto want = serial_fold(path);
  for (const std::size_t jobs : {1u, 2u, 4u, 8u}) {
    SCOPED_TRACE("jobs=" + std::to_string(jobs));
    const auto got = scan_esst(path, jobs);
    EXPECT_EQ(got.experiment, want.experiment);
    EXPECT_EQ(got.salvaged, want.salvaged);
    EXPECT_EQ(got.capture_dropped, want.capture_dropped);
    EXPECT_EQ(got.lost_records, want.lost_records);
    expect_same_result(got.summary.result("x"), want.summary.result("x"));
  }
}

TEST(ParallelScan, IdenticalToSerialAtAnyJobCount) {
  const std::string path = tmp_path("scan.esst");
  write_chunked(sample_trace("scan", 0, 20'000, 3), path);
  const auto oracle = serial_fold(path);
  EXPECT_FALSE(oracle.salvaged);
  EXPECT_EQ(oracle.lost_records, 0u);
  EXPECT_EQ(oracle.summary.records(), 20'000u);
  expect_scan_matches_oracle(path);
  std::filesystem::remove(path);
}

TEST(ParallelScan, DamagedChunkCostsSameRecordsAtAnyJobCount) {
  const std::string path = tmp_path("scan_damaged.esst");
  write_chunked(sample_trace("dmg", 0, 8'192, 4), path);
  // Flip a byte inside some mid-file chunk payload: its CRC fails, its
  // records count as dropped, everything else survives.
  auto bytes = slurp(path);
  bytes[bytes.size() / 2] ^= 0x5a;
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
  const auto damaged = serial_fold(path);
  EXPECT_FALSE(damaged.salvaged);
  EXPECT_GT(damaged.lost_records, 0u);
  EXPECT_TRUE(damaged.summary.result("x").lossy);
  expect_scan_matches_oracle(path);

  // The same flip with the trailer magic broken too (the last byte): the
  // index is lost, the chunk list comes from the salvage scan, and the
  // flipped chunk is still the only loss.
  bytes.back() ^= 0xff;
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
  const auto salvaged = serial_fold(path);
  EXPECT_TRUE(salvaged.salvaged);
  EXPECT_GT(salvaged.lost_records, 0u);
  EXPECT_TRUE(salvaged.summary.result("x").lossy);
  expect_scan_matches_oracle(path);
  std::filesystem::remove(path);
}

TEST(ParallelVerify, MatchesSerialReportCleanAndDamaged) {
  const std::string path = tmp_path("verify.esst");
  write_chunked(sample_trace("ver", 0, 8'192, 5), path);

  // The serial pass is the reference; every fan-out must reproduce it.
  const auto check_parity = [&] {
    const auto want = verify_esst(path, 1);
    for (const std::size_t jobs : {2u, 4u, 8u}) {
      EXPECT_TRUE(verify_esst(path, jobs) == want) << "jobs=" << jobs;
    }
    return want;
  };
  EXPECT_TRUE(check_parity().clean());

  auto bytes = slurp(path);
  bytes[bytes.size() / 2] ^= 0x5a;  // damaged chunk, index intact
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
  const auto damaged = check_parity();
  EXPECT_TRUE(damaged.index_ok);
  EXPECT_EQ(damaged.chunks_lost, 1u);

  // Truncate the index off the tail: salvaged files shard like any other
  // and still agree.
  bytes.resize(bytes.size() - 64);
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
  const auto salvaged = check_parity();
  EXPECT_FALSE(salvaged.index_ok);
  EXPECT_FALSE(salvaged.records_lost_exact);
  std::filesystem::remove(path);
}

class MergeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (int n = 1; n <= 3; ++n) {
      const auto ts =
          sample_trace("cluster", n, 4'000, 100 + static_cast<std::uint64_t>(n));
      const std::string path =
          tmp_path("node" + std::to_string(n) + ".esst");
      telemetry::EsstMeta meta;
      meta.node_id = n;
      meta.records_per_chunk = 512;
      telemetry::write_esst_file(ts, path, meta);
      inputs_.push_back(path);
    }
  }
  void TearDown() override {
    for (const auto& p : inputs_) std::filesystem::remove(p);
    std::filesystem::remove(out_);
  }

  std::vector<std::string> inputs_;
  std::string out_ = tmp_path("merged.esst");
};

TEST_F(MergeTest, RoundTripSumsPerNodeStats) {
  const auto res = merge_esst(inputs_, out_);
  EXPECT_EQ(res.records_written, 12'000u);
  EXPECT_EQ(res.inputs, 3u);

  // The merged file is format v2: node id -1, per-record node ids intact.
  const telemetry::EsstView reader(out_);
  EXPECT_TRUE(reader.meta().multi_node);
  EXPECT_EQ(reader.meta().node_id, -1);
  EXPECT_EQ(reader.meta().experiment, "cluster");

  // Merged record stream is sorted by (timestamp, node) and the per-node
  // splits reproduce each input exactly.
  const auto merged = reader.read_all();
  ASSERT_EQ(merged.size(), 12'000u);
  for (std::size_t i = 1; i < merged.records().size(); ++i) {
    const auto& prev = merged.records()[i - 1];
    const auto& cur = merged.records()[i];
    EXPECT_TRUE(prev.timestamp < cur.timestamp ||
                (prev.timestamp == cur.timestamp && prev.node <= cur.node));
  }
  const auto merged_scan = scan_esst(out_);
  const auto rows = merged_scan.summary.result("m").per_node;
  ASSERT_EQ(rows.size(), 3u);
  for (int n = 1; n <= 3; ++n) {
    const auto node_scan = scan_esst(inputs_[static_cast<std::size_t>(n - 1)]);
    const auto node_ts =
        telemetry::read_esst_file(inputs_[static_cast<std::size_t>(n - 1)]);
    const std::vector<trace::Record>& want = node_ts.records();
    std::vector<trace::Record> got;
    for (const auto& r : merged.records()) {
      if (r.node == n) {
        auto copy = r;
        copy.node = 0;  // v1 inputs carry node 0 per record
        got.push_back(copy);
      }
    }
    ASSERT_EQ(got.size(), want.size()) << "node " << n;
    EXPECT_EQ(got, want) << "node " << n;
    // Aggregate check through the scan engine: merged per-node counts
    // equal each input's own characterization.
    EXPECT_EQ(rows[static_cast<std::size_t>(n - 1)].node, n);
    EXPECT_EQ(rows[static_cast<std::size_t>(n - 1)].records,
              node_scan.summary.records());
    EXPECT_EQ(rows[static_cast<std::size_t>(n - 1)].reads,
              node_scan.summary.rw().reads());
  }
}

TEST_F(MergeTest, DeterministicAcrossRunsAndJobs) {
  ASSERT_NO_THROW(merge_esst(inputs_, out_, 1));
  const auto first = slurp(out_);
  ASSERT_FALSE(first.empty());
  for (const std::size_t jobs : {1u, 2u, 8u}) {
    merge_esst(inputs_, out_, jobs);
    EXPECT_EQ(slurp(out_), first) << "jobs=" << jobs;
  }
}

TEST_F(MergeTest, DamagedAndSalvagedInputsStayDeterministicAcrossJobs) {
  // Input 2 loses a mid-file chunk (CRC damage, index intact); input 3
  // loses its whole index (truncated tail → the view's salvage scan). The
  // merge must skip exactly the same records at every job
  // count and write identical bytes.
  {
    auto bytes = slurp(inputs_[1]);
    bytes[bytes.size() / 2] ^= 0x5a;
    std::ofstream(inputs_[1], std::ios::binary | std::ios::trunc) << bytes;
  }
  {
    auto bytes = slurp(inputs_[2]);
    bytes.resize(bytes.size() - 64);
    std::ofstream(inputs_[2], std::ios::binary | std::ios::trunc) << bytes;
  }
  const auto res = merge_esst(inputs_, out_, 1);
  EXPECT_GT(res.dropped_records, 0u);   // the damaged chunk's records
  EXPECT_LT(res.records_written, 12'000u);
  const auto first = slurp(out_);
  ASSERT_FALSE(first.empty());
  for (const std::size_t jobs : {2u, 8u}) {
    const auto again = merge_esst(inputs_, out_, jobs);
    EXPECT_EQ(again.records_written, res.records_written) << "jobs=" << jobs;
    EXPECT_EQ(again.dropped_records, res.dropped_records) << "jobs=" << jobs;
    EXPECT_EQ(slurp(out_), first) << "jobs=" << jobs;
  }
}

TEST(MergeOrder, EqualTimestampsBreakTiesByNodeThenInputAtAnyJobCount) {
  // Every input reuses the same tiny timestamp set, so nearly every merge
  // step is a tie — the worst case for run detection (runs collapse to
  // single records) and the exact case where the (ts, node, input) order
  // contract matters. Two of the inputs even share a node id, so the
  // final input-position tie-break is exercised too.
  std::vector<std::string> inputs;
  for (int i = 0; i < 3; ++i) {
    trace::TraceSet ts("ties", /*node=*/i < 2 ? 7 : 9);
    for (std::size_t k = 0; k < 3'000; ++k) {
      trace::Record r;
      r.timestamp = (k / 4) * 100;  // long runs of equal timestamps
      r.sector = static_cast<std::uint32_t>(k + 1'000u *
                                            static_cast<std::uint32_t>(i));
      r.size_bytes = 1024;
      r.is_write = 1;
      ts.add(r);
    }
    ts.set_duration(sec(1));
    const std::string path =
        tmp_path("ties" + std::to_string(i) + ".esst");
    telemetry::EsstMeta meta;
    meta.node_id = ts.node_id();
    meta.records_per_chunk = 256;
    telemetry::write_esst_file(ts, path, meta);
    inputs.push_back(path);
  }
  const std::string out = tmp_path("ties_merged.esst");

  merge_esst(inputs, out, 1);
  const auto first = slurp(out);
  ASSERT_FALSE(first.empty());
  {
    // (timestamp, node) non-decreasing through every tie.
    const auto merged = telemetry::read_esst_file(out);
    ASSERT_EQ(merged.size(), 9'000u);
    for (std::size_t i = 1; i < merged.records().size(); ++i) {
      const auto& prev = merged.records()[i - 1];
      const auto& cur = merged.records()[i];
      ASSERT_TRUE(prev.timestamp < cur.timestamp ||
                  (prev.timestamp == cur.timestamp && prev.node <= cur.node))
          << "record " << i;
    }
  }
  for (const std::size_t jobs : {2u, 8u}) {
    merge_esst(inputs, out, jobs);
    EXPECT_EQ(slurp(out), first) << "jobs=" << jobs;
  }
  for (const auto& p : inputs) std::filesystem::remove(p);
  std::filesystem::remove(out);
}

TEST(MergeOrder, UnsortedInputChunksMergeRecordExactAtAnyJobCount) {
  // ESST does not require records sorted by time; a cursor whose chunk is
  // unsorted must fall back from galloping to the record-exact linear
  // walk. The contract under test is not global output order (undefined
  // for unsorted inputs) but jobs-independence: identical bytes at every
  // worker count, matching the serial tournament record for record.
  std::vector<std::string> inputs;
  Rng rng(77);
  for (int i = 0; i < 3; ++i) {
    trace::TraceSet ts("shuffle", i + 1);
    for (std::size_t k = 0; k < 2'000; ++k) {
      trace::Record r;
      r.timestamp = static_cast<SimTime>(rng.uniform(1'000'000));
      r.sector = static_cast<std::uint32_t>(rng.uniform(1'018'080));
      r.size_bytes = 512u << rng.uniform(3);
      r.is_write = static_cast<std::uint8_t>(rng.uniform(2));
      ts.add(r);
    }
    ts.set_duration(sec(2));
    const std::string path =
        tmp_path("shuffle" + std::to_string(i) + ".esst");
    telemetry::EsstMeta meta;
    meta.node_id = i + 1;
    meta.records_per_chunk = 128;
    telemetry::write_esst_file(ts, path, meta);
    inputs.push_back(path);
  }
  const std::string out = tmp_path("shuffle_merged.esst");
  const auto res = merge_esst(inputs, out, 1);
  EXPECT_EQ(res.records_written, 6'000u);
  const auto first = slurp(out);
  for (const std::size_t jobs : {2u, 8u}) {
    merge_esst(inputs, out, jobs);
    EXPECT_EQ(slurp(out), first) << "jobs=" << jobs;
  }
  for (const auto& p : inputs) std::filesystem::remove(p);
  std::filesystem::remove(out);
}

TEST(MergeOrder, PackedKeyKeepsTheTupleOrderAtExtremes) {
  // The merge compares (timestamp, node, input) as one packed integer. Its
  // edges: node ids at both ends of int32 (the sign-bit flip must keep
  // INT32_MIN first and INT32_MAX last), timestamps up to UINT64_MAX - 1
  // (the top of the key, next to the all-ones sentinel), and equal
  // (timestamp, node) pairs across inputs, which only the input field
  // orders. Each v2 input is sorted by (timestamp, node), so the merge
  // must equal a stable sort of all records by (timestamp, node, input).
  constexpr std::int32_t kNodes[] = {INT32_MIN, -1, 0, INT32_MAX};
  constexpr SimTime kMax = std::numeric_limits<SimTime>::max();
  const SimTime kTimes[] = {0, 1, 7, SimTime{1} << 40, kMax - 2, kMax - 1};
  struct Tagged {
    trace::Record r;
    std::size_t input = 0;
  };
  const auto by_ts_node = [](const trace::Record& a, const trace::Record& b) {
    return a.timestamp != b.timestamp ? a.timestamp < b.timestamp
                                      : a.node < b.node;
  };
  std::vector<Tagged> all;
  std::vector<std::string> inputs;
  Rng rng(2024);
  for (std::size_t in = 0; in < 5; ++in) {
    std::vector<trace::Record> recs;
    for (std::size_t k = 0; k < 400; ++k) {
      trace::Record r;
      r.timestamp = kTimes[rng.uniform(std::size(kTimes))];
      r.node = kNodes[rng.uniform(std::size(kNodes))];
      r.sector = static_cast<std::uint32_t>(in * 100'000 + k);  // identity
      r.size_bytes = 1024;
      recs.push_back(r);
    }
    std::stable_sort(recs.begin(), recs.end(), by_ts_node);
    trace::TraceSet ts("extremes", -1);
    for (const auto& r : recs) {
      ts.add(r);
      all.push_back({r, in});
    }
    ts.set_duration(sec(1));
    const std::string path = tmp_path("extremes" + std::to_string(in) +
                                      ".esst");
    telemetry::EsstMeta meta;
    meta.node_id = -1;
    meta.multi_node = true;
    meta.records_per_chunk = 32;  // many refills, runs cut at chunk ends
    telemetry::write_esst_file(ts, path, meta);
    inputs.push_back(path);
  }
  std::stable_sort(all.begin(), all.end(),
                   [&](const Tagged& a, const Tagged& b) {
                     if (by_ts_node(a.r, b.r)) return true;
                     if (by_ts_node(b.r, a.r)) return false;
                     return a.input < b.input;
                   });
  const std::string out = tmp_path("extremes_merged.esst");
  for (const std::size_t jobs : {1u, 2u, 3u, 8u}) {
    const auto res = merge_esst(inputs, out, jobs);
    ASSERT_EQ(res.records_written, all.size()) << "jobs=" << jobs;
    const auto merged_ts = telemetry::read_esst_file(out);
    const auto& merged = merged_ts.records();
    ASSERT_EQ(merged.size(), all.size());
    for (std::size_t i = 0; i < merged.size(); ++i) {
      ASSERT_EQ(merged[i], all[i].r) << "record " << i << " jobs=" << jobs;
    }
  }
  for (const auto& p : inputs) std::filesystem::remove(p);
  std::filesystem::remove(out);
}

// ---- the multi-part merge ----
// merge_esst cuts its output at multiples of records_per_chunk and runs
// one loser tree per part. Tiny chunks give every case below several
// cuts; each must write the serial (jobs = 1) bytes at jobs 2, 3 and 8.

/// Write `recs` as one input with `per_chunk`-record chunks (v2 when the
/// node ids differ within it).
std::string write_input(const std::string& name, const std::string& exp,
                        std::int32_t node, bool multi,
                        const std::vector<trace::Record>& recs,
                        std::uint32_t per_chunk) {
  trace::TraceSet ts(exp, node);
  for (const auto& r : recs) ts.add(r);
  ts.set_duration(sec(1));
  const std::string path = tmp_path(name);
  telemetry::EsstMeta meta;
  meta.node_id = node;
  meta.multi_node = multi;
  meta.records_per_chunk = per_chunk;
  telemetry::write_esst_file(ts, path, meta);
  return path;
}

/// Merge at jobs 1, 2, 3 and 8: the same bytes, records and losses every
/// time. Returns the serial result and each level's part count.
MergeResult expect_parts_match_serial(const std::vector<std::string>& inputs,
                                      std::vector<std::size_t>* parts =
                                          nullptr) {
  const std::string out = tmp_path("parts_merged.esst");
  const auto want = merge_esst(inputs, out, 1);
  EXPECT_EQ(want.parts, 1u);
  const auto want_bytes = slurp(out);
  for (const std::size_t jobs : {2u, 3u, 8u}) {
    const auto got = merge_esst(inputs, out, jobs);
    EXPECT_EQ(slurp(out), want_bytes) << "jobs=" << jobs;
    EXPECT_EQ(got.records_written, want.records_written) << "jobs=" << jobs;
    EXPECT_EQ(got.dropped_records, want.dropped_records) << "jobs=" << jobs;
    EXPECT_LE(got.parts, jobs);
    if (parts != nullptr) parts->push_back(got.parts);
  }
  std::filesystem::remove(out);
  return want;
}

TEST(MergeParts, CutsInsideRunsOfEqualKeysAcrossAndWithinInputs) {
  // Runs of 40 equal (ts, node) keys inside each input, and the same
  // timestamps in every input, two of which share a node id: with 16-record
  // chunks most cuts land inside a run, where only the input field and
  // the position order the records.
  std::vector<std::string> inputs;
  for (int i = 0; i < 3; ++i) {
    std::vector<trace::Record> recs;
    for (std::uint32_t k = 0; k < 600; ++k) {
      trace::Record r;
      r.timestamp = (k / 40) * 100;
      r.sector = k + 1'000u * static_cast<std::uint32_t>(i);
      r.size_bytes = 1024;
      recs.push_back(r);
    }
    inputs.push_back(write_input("runs" + std::to_string(i) + ".esst",
                                 "runs", i < 2 ? 7 : 9, false, recs, 16));
  }
  std::vector<std::size_t> parts;
  const auto res = expect_parts_match_serial(inputs, &parts);
  EXPECT_EQ(res.records_written, 1'800u);
  EXPECT_EQ(parts, (std::vector<std::size_t>{2, 3, 8}));
  for (const auto& p : inputs) std::filesystem::remove(p);
}

TEST(MergeParts, DamagedChunkOnEitherSideOfACutCountsOnce) {
  // One CRC-damaged chunk of 16 records, in turn near the start (before
  // the first cut), in the middle and in the last chunk: whichever part
  // or cut search decodes it, its records count once.
  const std::size_t kChunks = 40;
  for (const std::size_t bad :
       {std::size_t{1}, std::size_t{19}, std::size_t{20}, kChunks - 1}) {
    SCOPED_TRACE("damaged chunk " + std::to_string(bad));
    std::vector<std::string> inputs;
    for (int i = 0; i < 3; ++i) {
      const auto ts = sample_trace("dmg", i + 1, kChunks * 16,
                                   300 + static_cast<std::uint64_t>(i));
      inputs.push_back(write_input("dmg" + std::to_string(i) + ".esst",
                                   "dmg", i + 1, false, ts.records(), 16));
    }
    std::uint64_t at = 0;
    {
      const telemetry::EsstView view(inputs[1]);
      ASSERT_EQ(view.chunks().size(), kChunks);
      at = view.chunks()[bad].offset + 8 + 5;  // inside the payload
    }
    auto bytes = slurp(inputs[1]);
    bytes[at] ^= 0x5a;
    std::ofstream(inputs[1], std::ios::binary | std::ios::trunc) << bytes;
    const auto res = expect_parts_match_serial(inputs);
    EXPECT_EQ(res.dropped_records, 16u);
    EXPECT_EQ(res.records_written, 3 * kChunks * 16 - 16);
    for (const auto& p : inputs) std::filesystem::remove(p);
  }
}

TEST(MergeParts, SalvagedInputMergesInPartsAndCountsItsLossesOnce) {
  // Input 1 loses its index and one chunk: the view's salvage scan drops
  // that chunk, and the merge still cuts the rest.
  std::vector<std::string> inputs;
  for (int i = 0; i < 3; ++i) {
    const auto ts = sample_trace("salv", i + 1, 800,
                                 500 + static_cast<std::uint64_t>(i));
    inputs.push_back(write_input("salv" + std::to_string(i) + ".esst",
                                 "salv", i + 1, false, ts.records(), 16));
  }
  std::uint64_t at = 0;
  {
    const telemetry::EsstView view(inputs[1]);
    at = view.chunks()[10].offset + 8 + 5;
  }
  auto bytes = slurp(inputs[1]);
  bytes[at] ^= 0x5a;
  bytes.back() ^= 0x5a;  // the trailer magic
  std::ofstream(inputs[1], std::ios::binary | std::ios::trunc) << bytes;
  ASSERT_TRUE(telemetry::EsstView(inputs[1]).salvaged());
  std::vector<std::size_t> parts;
  const auto res = expect_parts_match_serial(inputs, &parts);
  const auto losses = telemetry::EsstView(inputs[1]).scan_losses();
  EXPECT_GE(losses.records_lost, 16u);
  EXPECT_EQ(res.dropped_records, losses.records_lost);
  EXPECT_EQ(parts, (std::vector<std::size_t>{2, 3, 8}));
  for (const auto& p : inputs) std::filesystem::remove(p);
}

TEST(MergeParts, UnsortedChunkAfterTheFirstCutGivesTheSerialBytes) {
  // Sorted inputs but for one chunk of input 2, late in the file, whose
  // inner records are out of order while its first and last timestamps
  // (all the index shows) still fit: the part that decodes it sends the
  // merge back to one part.
  std::vector<std::string> inputs;
  for (int i = 0; i < 3; ++i) {
    auto recs = sample_trace("unsorted", i + 1, 640,
                             700 + static_cast<std::uint64_t>(i))
                    .records();
    if (i == 2) std::swap(recs[600 + 3], recs[600 + 5]);  // chunk 37
    inputs.push_back(write_input("unsorted" + std::to_string(i) + ".esst",
                                 "unsorted", i + 1, false, recs, 16));
  }
  std::vector<std::size_t> parts;
  expect_parts_match_serial(inputs, &parts);
  EXPECT_EQ(parts, (std::vector<std::size_t>{1, 1, 1}));
  for (const auto& p : inputs) std::filesystem::remove(p);
}

TEST(MergeParts, FewerOutputChunksThanWorkers) {
  // 3 x 12 records in 16-record output chunks: 3 chunks, so at most 3
  // parts however many workers there are.
  std::vector<std::string> inputs;
  for (int i = 0; i < 3; ++i) {
    const auto ts = sample_trace("few", i + 1, 12,
                                 900 + static_cast<std::uint64_t>(i));
    inputs.push_back(write_input("few" + std::to_string(i) + ".esst", "few",
                                 i + 1, false, ts.records(), 16));
  }
  std::vector<std::size_t> parts;
  const auto res = expect_parts_match_serial(inputs, &parts);
  EXPECT_EQ(res.records_written, 36u);
  EXPECT_EQ(parts, (std::vector<std::size_t>{2, 3, 3}));
  for (const auto& p : inputs) std::filesystem::remove(p);
}

TEST(MergeGolden, ClusterNodeGoldensMergeToTheCommittedClusterGolden) {
  // The PR 5 serial merge wrote tests/golden/cluster.esst from the two
  // per-node goldens; the loser-tree core must reproduce those bytes
  // exactly, at every job count. (CI re-derives the same check from a
  // fresh capture; this pins it to the committed files.)
  const auto golden_dir =
      std::filesystem::path(__FILE__).parent_path().parent_path() / "golden";
  const auto node1 = golden_dir / "cluster_node1.esst";
  const auto node2 = golden_dir / "cluster_node2.esst";
  const auto cluster = golden_dir / "cluster.esst";
  if (!std::filesystem::exists(node1) || !std::filesystem::exists(node2) ||
      !std::filesystem::exists(cluster)) {
    GTEST_SKIP() << "golden captures not present";
  }
  const auto want = slurp(cluster.string());
  ASSERT_FALSE(want.empty());
  const std::string out = tmp_path("golden_merged.esst");
  for (const std::size_t jobs : {1u, 2u, 8u}) {
    merge_esst({node1.string(), node2.string()}, out, jobs);
    EXPECT_EQ(slurp(out), want) << "jobs=" << jobs;
  }
  std::filesystem::remove(out);
}

TEST(MergeGolden, SalvagedInputCarriesItsLossesIntoTheMerge) {
  // A 15-chunk capture whose trailer magic and chunk 2's payload are both
  // flipped: the view salvages it and its scan drops chunk 2. stats and
  // the merge must count those records as the verify does, so the merged
  // file is not clean.
  const auto node1 = std::filesystem::path(__FILE__).parent_path()
                         .parent_path() / "golden" / "cluster_node1.esst";
  if (!std::filesystem::exists(node1)) {
    GTEST_SKIP() << "golden captures not present";
  }
  const std::string damaged = tmp_path("salvaged_input.esst");
  write_chunked(sample_trace("salvage", 4, 700, 7), damaged, 48);
  auto bytes = slurp(damaged);
  std::uint64_t chunk2 = 0;
  {
    const telemetry::EsstView view(damaged);
    ASSERT_EQ(view.chunks().size(), 15u);
    chunk2 = view.chunks()[2].offset;
  }
  bytes.back() ^= 0x5a;
  bytes[chunk2 + 8 + 10] ^= 0x5a;
  std::ofstream(damaged, std::ios::binary | std::ios::trunc) << bytes;

  const auto rep = verify_esst(damaged, 1);
  EXPECT_FALSE(rep.index_ok);
  EXPECT_GE(rep.records_lost, 48u);
  for (const std::size_t jobs : {1u, 4u}) {
    EXPECT_EQ(scan_esst(damaged, jobs).lost_records, rep.records_lost)
        << "jobs=" << jobs;
  }

  const std::string out = tmp_path("salvaged_merged.esst");
  const auto res = merge_esst({damaged, node1.string()}, out, 2);
  EXPECT_GE(res.dropped_records, 48u);
  const auto merged = verify_esst(out, 1);
  EXPECT_FALSE(merged.clean());
  EXPECT_GE(merged.capture_dropped, 48u);
  std::filesystem::remove(damaged);
  std::filesystem::remove(out);
}

TEST(MergeErrors, WriteFailureNamesTheOutputPath) {
  // Full-disk during a merge must say *which* file failed: the writer
  // carries the output path into the error text. /dev/full fails every
  // write with ENOSPC on Linux; skip quietly where it does not exist.
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP();
  const std::string in = tmp_path("errctx_in.esst");
  write_chunked(sample_trace("err", 1, 2'000, 9), in);
  try {
    merge_esst({in}, "/dev/full", 1);
    FAIL() << "merge to /dev/full unexpectedly succeeded";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("/dev/full"), std::string::npos)
        << e.what();
  }
  std::filesystem::remove(in);
}

TEST_F(MergeTest, AggregatesDropCountsIntoTrailer) {
  // Rewrite input 1 with capture-time drops in its trailer.
  {
    trace::TraceSet ts;
    telemetry::EsstMeta meta;
    {
      const telemetry::EsstView reader(inputs_[0]);
      ts = reader.read_all();
      meta = reader.meta();
    }
    std::ofstream of(inputs_[0], std::ios::binary | std::ios::trunc);
    telemetry::EsstWriter writer(of, meta);
    for (const auto& r : ts.records()) writer.append(r);
    writer.set_dropped_records(123);
    writer.finish(ts.duration());
  }
  const auto res = merge_esst(inputs_, out_);
  EXPECT_EQ(res.dropped_records, 123u);
  const telemetry::EsstView reader(out_);
  EXPECT_EQ(reader.capture_dropped(), 123u);
}

TEST(EsstV2, MultiNodeRoundTripPreservesPerRecordNodes) {
  const std::string path = tmp_path("v2.esst");
  trace::TraceSet ts = sample_trace("v2", -1, 2'000, 17);
  {
    // Stamp interleaved node ids the way a merge output carries them.
    trace::TraceSet stamped("v2", -1);
    int i = 0;
    for (auto r : ts.records()) {
      r.node = i++ % 4 + 1;
      stamped.add(r);
    }
    stamped.set_duration(ts.duration());
    ts = std::move(stamped);
  }
  telemetry::EsstMeta meta;
  meta.multi_node = true;
  meta.records_per_chunk = 256;
  telemetry::write_esst_file(ts, path, meta);

  {
    const telemetry::EsstView reader(path);
    EXPECT_TRUE(reader.meta().multi_node);
    const auto back = reader.read_all();
    EXPECT_EQ(back.records(), ts.records());  // node ids included
  }
  std::filesystem::remove(path);
}

// ---- sharding: ranges must exactly tile [0, nchunks), never overlap ----

void expect_exact_cover(
    const std::vector<std::pair<std::size_t, std::size_t>>& ranges,
    std::size_t chunks) {
  std::size_t expect_lo = 0;
  for (const auto& [lo, hi] : ranges) {
    EXPECT_EQ(lo, expect_lo);  // contiguous: no gap, no overlap
    EXPECT_LT(lo, hi);         // never an empty shard
    expect_lo = hi;
  }
  EXPECT_EQ(expect_lo, chunks);
}

TEST(ShardRangesWeighted, CoversExactlyAndBalancesBytes) {
  // Pin the per-shard byte floor so the expectations below cannot drift
  // with the production default (or an inherited ESS_SHARD_MIN_BYTES).
  const std::uint64_t mb = 1024 * 1024;
  const std::uint64_t floor_bytes = 4 * mb;

  EXPECT_TRUE(shard_ranges_weighted({}, 8, floor_bytes).empty());

  // One worker (or "0") is one range over everything — the serial shard
  // loop — however heavy the capture is.
  const std::vector<std::uint64_t> heavy(64, 16 * mb);
  for (const std::size_t workers : {0u, 1u}) {
    const auto one = shard_ranges_weighted(heavy, workers, floor_bytes);
    ASSERT_EQ(one.size(), 1u);
    expect_exact_cover(one, heavy.size());
  }

  // All-zero weights: one shard holding everything, still exact cover.
  expect_exact_cover(shard_ranges_weighted({0, 0, 0}, 4, floor_bytes), 3);
  EXPECT_EQ(shard_ranges_weighted({0, 0, 0}, 4, floor_bytes).size(), 1u);

  // A tiny capture (way under the min shard size) never splits.
  EXPECT_EQ(
      shard_ranges_weighted({100, 100, 100, 100}, 8, floor_bytes).size(),
      1u);

  // Big skewed weights: every range covered, and the one giant chunk gets
  // a shard to itself instead of dragging neighbors with it.
  std::vector<std::uint64_t> skew(16, mb);
  skew[5] = 64 * mb;
  const auto ranges = shard_ranges_weighted(skew, 4, floor_bytes);
  expect_exact_cover(ranges, skew.size());
  ASSERT_GT(ranges.size(), 1u);
  for (const auto& [lo, hi] : ranges) {
    if (lo <= 5 && 5 < hi) {
      EXPECT_EQ(hi - lo, 1u);  // the giant is alone
    }
  }

  // Uniform weights with zero-byte stragglers at the tail: the trailing
  // zeros must still land in the last shard.
  std::vector<std::uint64_t> tail(12, mb);
  tail.push_back(0);
  tail.push_back(0);
  expect_exact_cover(shard_ranges_weighted(tail, 3, floor_bytes),
                     tail.size());
}

TEST(ShardRangesWeighted, ShardFloorFromTheEnvironmentIsDigitsOnly) {
  // 16 x 1 MiB at 4 workers: the 4 MiB default floor gives 4 shards, a
  // 1 MiB floor 16, a 8 MiB floor 2.
  const std::vector<std::uint64_t> chunks(16, 1024 * 1024);
  const auto shards_with = [&](const char* env) {
    ::setenv("ESS_SHARD_MIN_BYTES", env, 1);
    return shard_ranges_weighted(chunks, 4, 0).size();
  };
  EXPECT_EQ(shards_with("1048576"), 16u);
  EXPECT_EQ(shards_with("8388608"), 2u);
  EXPECT_EQ(shards_with("0004194304"), 4u);  // leading zeros: decimal
  // Anything but plain digits keeps the default: "-1" is not a 2^64 - 1
  // floor (one shard), nor " 64" / "+64" a 64-byte one (16 shards).
  for (const char* bad : {"-1", " 64", "+64", "64 ", "64k", "0x40", "", "0",
                          "18446744073709551616"}) {
    EXPECT_EQ(shards_with(bad), 4u) << "'" << bad << "'";
  }
  ::setenv("ESS_SHARD_MIN_BYTES", "1024", 1);  // as the rest of this file
}

TEST(ParallelVerify, FirstBadOffsetIsUnsetOnCleanAndExactOnDamage) {
  const std::string path = tmp_path("first_bad.esst");
  write_chunked(sample_trace("fb", 0, 8'192, 9), path);

  // Clean file: no damage offset at all — an empty optional, not offset 0.
  for (const std::size_t jobs : {1u, 4u}) {
    const auto rep = verify_esst(path, jobs);
    EXPECT_FALSE(rep.first_bad_offset.has_value());
    EXPECT_TRUE(rep.clean());
  }

  // Damage the FIRST chunk — its offset (the fixed header size) used to be
  // conflated with the old "0 = no damage" sentinel's neighborhood; the
  // optional reports it exactly.
  const auto first_chunk = telemetry::EsstView(path).chunks().front().offset;
  auto bytes = slurp(path);
  bytes[first_chunk + 10] ^= 0x11;
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;

  for (const std::size_t jobs : {1u, 4u}) {
    const auto rep = verify_esst(path, jobs);
    ASSERT_TRUE(rep.first_bad_offset.has_value());
    EXPECT_EQ(*rep.first_bad_offset, first_chunk);
    EXPECT_FALSE(rep.clean());
  }
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace ess::analysis
