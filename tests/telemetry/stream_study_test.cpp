// End-to-end streaming telemetry: a live StreamSummary attached to a Study
// run must characterize the run as analysis::characterize does the returned
// trace, and the drain-side EsstFileSink must capture an indexed ESST file
// equivalent to that trace.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "../core/fast_config.hpp"
#include "analysis/characterize.hpp"
#include "core/study.hpp"
#include "telemetry/consumers.hpp"
#include "telemetry/esst.hpp"
#include "telemetry/esst_view.hpp"
#include "telemetry/snapshot.hpp"
#include "trace/io.hpp"

namespace ess::telemetry {
namespace {

TEST(StreamStudy, LiveResultEqualsCharacterizeOnShiftInvariantFields) {
  auto cfg = test::fast_study_config();
  StreamSummary live;
  cfg.live_sink = &live;
  core::Study study(cfg);
  const auto res = study.run_combined();
  ASSERT_GT(res.trace.size(), 0u);
  EXPECT_TRUE(live.finished());

  // The live sink saw every record the driver emitted, at raw node time;
  // the returned trace holds the same records rebased to tracing-on. Every
  // field a time shift cannot change must agree exactly; the durations and
  // the rates derived from them need not.
  const auto got = live.result();
  const auto want = analysis::characterize(res.trace).result();
  EXPECT_EQ(got.records, res.trace.size());
  EXPECT_EQ(got.records, want.records);
  EXPECT_EQ(got.reads, want.reads);
  EXPECT_EQ(got.writes, want.writes);
  EXPECT_EQ(got.size_pct, want.size_pct);
  EXPECT_EQ(got.band_pct, want.band_pct);
  EXPECT_TRUE(want.hot_exact);
  EXPECT_EQ(got.hot_exact, want.hot_exact);
  ASSERT_EQ(got.hot.size(), want.hot.size());
  for (std::size_t i = 0; i < got.hot.size(); ++i) {
    EXPECT_EQ(got.hot[i].sector, want.hot[i].sector);
    EXPECT_EQ(got.hot[i].count, want.hot[i].count);
    EXPECT_EQ(got.hot[i].error, want.hot[i].error);
  }
  EXPECT_EQ(got.max_request_bytes, want.max_request_bytes);
}

TEST(StreamStudy, DrainSinkCapturesEsstEquivalentToReturnedTrace) {
  const std::string path = ::testing::TempDir() + "/stream_study_drain.esst";
  auto cfg = test::fast_study_config();
  EsstMeta meta;
  meta.experiment = "wavelet";
  meta.seed = cfg.seed;
  meta.ram_bytes = cfg.node.ram_bytes;
  {
    EsstFileSink drain(path, meta);
    cfg.drain_sink = &drain;
    core::Study study(cfg);
    const auto res = study.run_single(core::AppKind::kWavelet);
    ASSERT_GT(res.trace.size(), 0u);
    EXPECT_EQ(drain.records_written(), res.trace.size());

    const EsstView reader(path);
    EXPECT_FALSE(reader.salvaged());
    EXPECT_EQ(reader.meta().experiment, "wavelet");
    const auto captured = reader.read_all();
    ASSERT_EQ(captured.size(), res.trace.size());
    // Same records in the same order; timestamps differ only by the
    // constant tracing-on offset removed by the rebase.
    ASSERT_GE(captured.records()[0].timestamp,
              res.trace.records()[0].timestamp);
    const SimTime shift =
        captured.records()[0].timestamp - res.trace.records()[0].timestamp;
    for (std::size_t i = 0; i < captured.size(); ++i) {
      const auto& a = captured.records()[i];
      const auto& b = res.trace.records()[i];
      EXPECT_EQ(a.timestamp, b.timestamp + shift);
      EXPECT_EQ(a.sector, b.sector);
      EXPECT_EQ(a.size_bytes, b.size_bytes);
      EXPECT_EQ(a.is_write, b.is_write);
      EXPECT_EQ(a.outstanding, b.outstanding);
    }
    // The capture spans the whole run, so its duration covers every record.
    EXPECT_GE(reader.duration(), captured.records().back().timestamp);
  }
  std::remove(path.c_str());
}

TEST(StreamStudy, BaselineEsstAtMostFortyPercentOfCsv) {
  auto cfg = test::fast_study_config();
  core::Study study(cfg);
  const auto res = study.run_baseline();
  ASSERT_GT(res.trace.size(), 0u);

  std::stringstream csv;
  trace::write_csv(res.trace, csv);
  std::stringstream esst;
  write_esst(res.trace, esst);
  EXPECT_LE(esst.str().size(), csv.str().size() * 2 / 5)
      << "ESST " << esst.str().size() << " bytes vs CSV "
      << csv.str().size() << " bytes for " << res.trace.size() << " records";
}

TEST(StreamStudy, WaveletCsvToEsstToCsvIsByteIdentical) {
  auto cfg = test::fast_study_config();
  core::Study study(cfg);
  const auto res = study.run_single(core::AppKind::kWavelet);
  ASSERT_GT(res.trace.size(), 0u);

  std::stringstream first_csv;
  trace::write_csv(res.trace, first_csv);

  const auto parsed = trace::read_csv(first_csv);
  std::stringstream esst;
  write_esst(parsed, esst);
  const auto decoded =
      EsstView(util::MmapFile::from_bytes(esst.str())).read_all();

  std::stringstream second_csv;
  trace::write_csv(decoded, second_csv);
  EXPECT_EQ(second_csv.str(), first_csv.str());
}

TEST(StreamStudy, SnapshotEmitterReportsProgressDuringARun) {
  auto cfg = test::fast_study_config();
  StreamSummary live;
  std::vector<Snapshot> seen;
  SnapshotEmitter emitter(live, sec(10),
                          [&](const Snapshot& s) { seen.push_back(s); });
  FanoutSink fan;
  fan.add(&live);
  fan.add(&emitter);
  cfg.live_sink = &fan;
  core::Study study(cfg);
  const auto res = study.run_baseline();
  ASSERT_GT(res.trace.size(), 0u);

  // The 120 s baseline must have produced several mid-run snapshots plus
  // the final one fired by the study after trace collection.
  ASSERT_GE(seen.size(), 3u);
  EXPECT_TRUE(seen.back().final_snapshot);
  EXPECT_EQ(seen.back().records, res.trace.size());
  for (std::size_t i = 0; i + 1 < seen.size(); ++i) {
    EXPECT_FALSE(seen[i].final_snapshot);
    EXPECT_LE(seen[i].records, seen[i + 1].records);
    EXPECT_LE(seen[i].t, seen[i + 1].t);
  }
}

}  // namespace
}  // namespace ess::telemetry
