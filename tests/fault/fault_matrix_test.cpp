// The fault matrix: replay the paper's experiments under each fault class
// and assert the end-to-end contract — either the characterization stays
// within the telemetry::diff tolerances (faults the recovery layers absorb)
// or the damage is loudly accounted for (drop counts in the ESST trailer,
// latched sinks, verify() reports), never silently wrong.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/parallel.hpp"
#include "core/presets.hpp"
#include "core/study.hpp"
#include "exec/experiments.hpp"
#include "fault/fault.hpp"
#include "telemetry/consumers.hpp"
#include "telemetry/diff.hpp"
#include "telemetry/esst.hpp"
#include "telemetry/esst_view.hpp"

namespace ess::fault {
namespace {

using telemetry::DiffTolerance;
using telemetry::StreamSummary;

/// Batch-characterize a finished trace through the same summary type the
/// diff operates on.
StreamSummary::Result characterize(const trace::TraceSet& ts,
                                   const std::string& name) {
  StreamSummary s;
  for (const auto& r : ts.records()) s.on_record(r);
  s.on_finish(ts.duration());
  return s.result(name);
}

core::RunResult run_ppm(const FaultPlan& plan,
                        telemetry::Sink* drain_sink = nullptr) {
  auto cfg = core::fast_study_config();
  cfg.node.fault = plan;
  cfg.drain_sink = drain_sink;
  core::Study study(cfg);
  return study.run_single(core::AppKind::kPpm);
}

/// Healthy reference runs, computed once for the whole suite — every fault
/// case diffs against the same golden characterization.
const core::RunResult& healthy_ppm() {
  static const core::RunResult res = run_ppm(FaultPlan{});
  return res;
}

const core::RunResult& healthy_combined() {
  static const core::RunResult res = [] {
    core::Study study(core::fast_study_config());
    return study.run_combined();
  }();
  return res;
}

TEST(FaultMatrix, TransientErrorsUnderRetryStayWithinTolerance) {
  FaultPlan plan;
  plan.disk.transient_error_rate = 0.005;  // rare soft errors, retried
  const auto res = run_ppm(plan);
  ASSERT_TRUE(res.completed);
  ASSERT_GT(res.trace.size(), 0u);

  const auto d = telemetry::diff_summaries(
      characterize(healthy_ppm().trace, "ppm"),
      characterize(res.trace, "ppm-transient"));
  EXPECT_TRUE(d.ok) << telemetry::render_diff(d);
  EXPECT_TRUE(d.notes.empty());  // nothing was lost, so nothing to flag
}

TEST(FaultMatrix, MediaErrorsDegradeRequestsButTheRunCompletes) {
  FaultPlan plan;
  plan.disk.bad_ranges.push_back({50'000, 50'063});  // one dead track
  const auto res = run_ppm(plan);
  // The degraded-mode contract: failed requests still complete (carrying
  // their error), so the application and the run always finish.
  ASSERT_TRUE(res.completed);
  ASSERT_GT(res.trace.size(), 0u);

  const auto d = telemetry::diff_summaries(
      characterize(healthy_ppm().trace, "ppm"),
      characterize(res.trace, "ppm-media"));
  EXPECT_TRUE(d.ok) << telemetry::render_diff(d);
}

TEST(FaultMatrix, LatencySpikesAndStallWindowsStayWithinTolerance) {
  FaultPlan plan;
  plan.disk.latency_spike_rate = 0.01;
  plan.disk.latency_spike = msec(10);
  plan.disk.stall_windows.push_back({sec(30), msec(30'500)});
  const auto res = run_ppm(plan);
  ASSERT_TRUE(res.completed);

  const auto d = telemetry::diff_summaries(
      characterize(healthy_ppm().trace, "ppm"),
      characterize(res.trace, "ppm-latency"));
  EXPECT_TRUE(d.ok) << telemetry::render_diff(d);
}

TEST(FaultMatrix, FaultedRunIsDeterministicFromTheSeed) {
  FaultPlan plan;
  plan.seed = 99;
  plan.disk.transient_error_rate = 0.01;
  plan.disk.latency_spike_rate = 0.02;
  plan.disk.latency_spike = msec(5);
  const auto a = run_ppm(plan);
  const auto b = run_ppm(plan);
  ASSERT_EQ(a.trace.size(), b.trace.size());
  for (std::size_t i = 0; i < a.trace.size(); ++i) {
    const auto& ra = a.trace.records()[i];
    const auto& rb = b.trace.records()[i];
    ASSERT_EQ(ra.timestamp, rb.timestamp) << "record " << i;
    ASSERT_EQ(ra.sector, rb.sector) << "record " << i;
    ASSERT_EQ(ra.size_bytes, rb.size_bytes) << "record " << i;
    ASSERT_EQ(ra.is_write, rb.is_write) << "record " << i;
  }
}

TEST(FaultMatrix, CellsThroughTheParallelExecutorMatchSerialRuns) {
  // The whole tolerance row of the matrix as one parallel fan-out: each
  // cell is a self-contained job, and every cell's trace must be identical
  // to the serial run_ppm() of the same plan.
  FaultPlan transient;
  transient.disk.transient_error_rate = 0.005;
  FaultPlan media;
  media.disk.bad_ranges.push_back({50'000, 50'063});
  FaultPlan latency;
  latency.disk.latency_spike_rate = 0.01;
  latency.disk.latency_spike = msec(10);
  latency.disk.stall_windows.push_back({sec(30), msec(30'500)});

  const FaultPlan plans[] = {transient, media, latency};
  std::vector<exec::JobSpec> specs;
  for (const auto& plan : plans) {
    exec::JobSpec s;
    s.name = "ppm";
    s.config = core::fast_study_config();
    s.config.node.fault = plan;
    s.experiment = exec::Experiment::kPpm;
    specs.push_back(std::move(s));
  }
  const auto outcomes = exec::run_jobs(specs, /*workers=*/3);
  ASSERT_EQ(outcomes.size(), 3u);
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    SCOPED_TRACE(i);
    const auto serial = run_ppm(plans[i]);
    ASSERT_TRUE(outcomes[i].run.completed);
    ASSERT_EQ(outcomes[i].run.trace.size(), serial.trace.size());
    for (std::size_t r = 0; r < serial.trace.size(); ++r) {
      const auto& ra = outcomes[i].run.trace.records()[r];
      const auto& rb = serial.trace.records()[r];
      ASSERT_EQ(ra.timestamp, rb.timestamp) << "record " << r;
      ASSERT_EQ(ra.sector, rb.sector) << "record " << r;
      ASSERT_EQ(ra.size_bytes, rb.size_bytes) << "record " << r;
      ASSERT_EQ(ra.is_write, rb.is_write) << "record " << r;
    }
  }
}

TEST(FaultMatrix, DrainStallOverflowsTheRingAndEveryLayerAccountsForIt) {
  // Stall the trace-drain daemon for most of the combined run with a small
  // procfs ring: the ring must overflow, and the loss must surface in the
  // ring counters, the ESST trailer, the summary, the diff notes, and
  // verify() — no layer may pretend the capture is complete.
  const std::string path = ::testing::TempDir() + "/fault_matrix_stall.esst";
  FaultPlan plan;
  plan.kernel.drain_stalls.push_back({sec(4), sec(100'000)});

  auto cfg = core::fast_study_config();
  cfg.node.fault = plan;
  cfg.node.trace_ring_capacity = 256;
  telemetry::EsstMeta meta;
  meta.experiment = "combined";
  telemetry::StreamSummary drain_summary;
  telemetry::EsstFileSink esst(path, meta);
  telemetry::FanoutSink fan;
  fan.add(&drain_summary);
  fan.add(&esst);
  cfg.drain_sink = &fan;
  core::Study study(cfg);
  const auto res = study.run_combined();
  ASSERT_TRUE(res.completed);
  ASSERT_FALSE(esst.failed()) << esst.error();

  // The capture is a strict subset of the healthy run's record stream.
  ASSERT_GT(res.trace.size(), 0u);
  ASSERT_LT(res.trace.size(), healthy_combined().trace.size());

  // The drain-side summary was told about the loss.
  const auto lossy = drain_summary.result("combined-stalled");
  EXPECT_TRUE(lossy.lossy);
  EXPECT_GT(lossy.dropped_records, 0u);

  // The diff against the healthy capture carries a provenance note, so the
  // comparison cannot silently read as a like-for-like one.
  const auto d = telemetry::diff_summaries(
      characterize(healthy_combined().trace, "combined"), lossy);
  ASSERT_FALSE(d.notes.empty());
  EXPECT_NE(d.notes.front().find("lossy"), std::string::npos);

  // The ESST file persisted the drop count, and verify() refuses to call
  // the capture clean even though every byte on disk is intact.
  const telemetry::EsstView reader(path);
  EXPECT_FALSE(reader.salvaged());
  EXPECT_EQ(reader.capture_dropped(), lossy.dropped_records);
  const auto rep = analysis::verify_esst(reader, 1);
  EXPECT_TRUE(rep.index_ok);
  EXPECT_EQ(rep.chunks_lost, 0u);
  EXPECT_EQ(rep.capture_dropped, lossy.dropped_records);
  EXPECT_FALSE(rep.clean());
  std::remove(path.c_str());
}

TEST(FaultMatrix, WriterFailureLatchesTheSinkAndThePartialFileSalvages) {
  // The capture medium dies mid-run. The run itself must finish unharmed,
  // the sink must latch the error instead of throwing into the drain
  // daemon, and the partial file must salvage to the last complete chunk.
  const std::string path = ::testing::TempDir() + "/fault_matrix_dead.esst";
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  // The fast PPM run captures only a few hundred bytes; small chunks and a
  // budget past the header but short of the full capture kill the medium
  // mid-run with complete chunks already on disk.
  FailAfterStream dying(file, 300);
  telemetry::EsstMeta meta;
  meta.experiment = "ppm";
  meta.records_per_chunk = 8;
  telemetry::EsstFileSink sink(dying, meta);

  const auto res = run_ppm(FaultPlan{}, &sink);
  ASSERT_TRUE(res.completed);
  EXPECT_EQ(res.trace.size(), healthy_ppm().trace.size());
  EXPECT_TRUE(sink.failed());
  EXPECT_FALSE(sink.error().empty());
  file.close();

  const telemetry::EsstView reader(path);
  EXPECT_TRUE(reader.salvaged());
  EXPECT_GT(reader.total_records(), 0u);
  EXPECT_LT(reader.total_records(), res.trace.size());
  EXPECT_FALSE(analysis::verify_esst(reader, 1).clean());
  std::remove(path.c_str());
}

TEST(FaultMatrix, CorruptionPassIsCaughtByVerifyNeverSilentlyRead) {
  // Post-hoc damage (the trace_io fault class): a healthy capture gets the
  // seeded truncation + bit-flip pass; verify() must report the loss and
  // read_all() must only ever return CRC-clean records.
  const std::string path = ::testing::TempDir() + "/fault_matrix_rot.esst";
  telemetry::EsstMeta meta;
  meta.experiment = "ppm";
  meta.records_per_chunk = 4;  // many small chunks: damage stays localized
  {
    telemetry::EsstFileSink sink(path, meta);
    const auto res = run_ppm(FaultPlan{}, &sink);
    ASSERT_TRUE(res.completed);
    ASSERT_FALSE(sink.failed());
  }

  TraceIoFaults f;
  f.truncate_tail_bytes = 400;  // takes the index and cuts into the tail chunks
  f.bitflips = 2;
  const auto sum = corrupt_file(path, f, /*seed=*/11);
  ASSERT_EQ(sum.flipped_offsets.size(), 2u);

  const telemetry::EsstView reader(path);
  EXPECT_TRUE(reader.salvaged());
  const auto rep = analysis::verify_esst(reader, 1);
  EXPECT_FALSE(rep.clean());
  EXPECT_FALSE(rep.index_ok);
  EXPECT_FALSE(rep.records_lost_exact);
  EXPECT_GT(rep.records_kept, 0u);
  EXPECT_LT(rep.records_kept, healthy_ppm().trace.size());
  EXPECT_NO_THROW(reader.read_all());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ess::fault
