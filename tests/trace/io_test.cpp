#include "trace/io.hpp"

#include <gtest/gtest.h>

#include <sstream>

namespace ess::trace {
namespace {

TraceSet sample() {
  TraceSet ts("roundtrip", 7);
  for (int i = 0; i < 100; ++i) {
    Record r;
    r.timestamp = static_cast<SimTime>(i) * 1000;
    r.sector = static_cast<std::uint32_t>(i * 17);
    r.size_bytes = 1024u << (i % 5);
    r.is_write = static_cast<std::uint8_t>(i % 2);
    r.outstanding = static_cast<std::uint16_t>(i % 7);
    ts.add(r);
  }
  ts.set_duration(1'000'000);
  return ts;
}

TEST(TraceIo, CsvHasHeaderAndRows) {
  TraceSet ts("csv", 0);
  Record r;
  r.timestamp = 42;
  r.sector = 7;
  r.size_bytes = 2048;
  r.is_write = 1;
  r.outstanding = 3;
  ts.add(r);
  std::stringstream ss;
  write_csv(ts, ss);
  EXPECT_EQ(ss.str(),
            "timestamp_us,sector,size_bytes,is_write,outstanding\n"
            "42,7,2048,1,3\n");
}

TEST(TraceIo, EmptyTraceRoundTrips) {
  TraceSet ts("empty", -1);
  std::stringstream ss;
  write_csv(ts, ss);
  CsvReadStats stats;
  const TraceSet restored = read_csv(ss, &stats);
  EXPECT_TRUE(restored.empty());
  EXPECT_TRUE(stats.had_header);
  EXPECT_EQ(stats.skipped, 0u);
}

TEST(TraceIo, CsvRoundTrip) {
  const TraceSet original = sample();
  std::stringstream ss;
  write_csv(original, ss);
  CsvReadStats stats;
  const TraceSet restored = read_csv(ss, &stats);
  EXPECT_TRUE(stats.had_header);
  EXPECT_EQ(stats.rows, original.size());
  EXPECT_EQ(stats.skipped, 0u);
  ASSERT_EQ(restored.size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(restored.records()[i], original.records()[i]);
  }
}

TEST(TraceIo, CsvEmptyInputIsAnEmptyTraceNotAnError) {
  std::stringstream empty;
  CsvReadStats stats;
  const TraceSet ts = read_csv(empty, &stats);
  EXPECT_TRUE(ts.empty());
  EXPECT_EQ(stats.rows, 0u);
  EXPECT_EQ(stats.skipped, 0u);
  EXPECT_FALSE(stats.had_header);
}

TEST(TraceIo, CsvHeaderOnlyIsAnEmptyTrace) {
  std::stringstream ss("timestamp_us,sector,size_bytes,is_write,outstanding\n");
  CsvReadStats stats;
  const TraceSet ts = read_csv(ss, &stats);
  EXPECT_TRUE(ts.empty());
  EXPECT_TRUE(stats.had_header);
  EXPECT_EQ(stats.skipped, 0u);
}

TEST(TraceIo, CsvSkipsBlankLinesAndComments) {
  std::stringstream ss(
      "# captured by esstrace\n"
      "\n"
      "timestamp_us,sector,size_bytes,is_write,outstanding\n"
      "100,7,1024,0,0\n"
      "\n"
      "# mid-file note\n"
      "200,8,2048,1,1\n");
  CsvReadStats stats;
  const TraceSet ts = read_csv(ss, &stats);
  EXPECT_TRUE(stats.had_header);
  EXPECT_EQ(stats.rows, 2u);
  EXPECT_EQ(stats.skipped, 0u);
  ASSERT_EQ(ts.size(), 2u);
  EXPECT_EQ(ts.records()[0].sector, 7u);
  EXPECT_EQ(ts.records()[1].size_bytes, 2048u);
}

TEST(TraceIo, CsvCountsMalformedRowsWithoutDroppingGoodOnes) {
  std::stringstream ss(
      "timestamp_us,sector,size_bytes,is_write,outstanding\n"
      "100,7,1024,0,0\n"
      "not,numbers,at,all,here\n"       // non-numeric fields
      "200,8\n"                         // too few columns
      "300,9,1024,1,2,extra\n"          // too many columns
      "400,4294967296,1024,0,0\n"       // sector overflows u32
      "500,10,1024,2,0\n"               // is_write out of range
      "600,11,1024,-1,0\n"              // signs rejected
      "700,12,4096,1,3\n");
  CsvReadStats stats;
  const TraceSet ts = read_csv(ss, &stats);
  EXPECT_TRUE(stats.had_header);
  EXPECT_EQ(stats.rows, 2u);
  EXPECT_EQ(stats.skipped, 6u);
  ASSERT_EQ(ts.size(), 2u);
  EXPECT_EQ(ts.records()[0].timestamp, 100u);
  EXPECT_EQ(ts.records()[1].timestamp, 700u);
  EXPECT_EQ(ts.records()[1].is_write, 1);
}

TEST(TraceIo, CsvHandlesCrLfLineEndings) {
  std::stringstream ss(
      "timestamp_us,sector,size_bytes,is_write,outstanding\r\n"
      "100,7,1024,0,0\r\n");
  CsvReadStats stats;
  const TraceSet ts = read_csv(ss, &stats);
  EXPECT_EQ(stats.rows, 1u);
  ASSERT_EQ(ts.size(), 1u);
  EXPECT_EQ(ts.records()[0].sector, 7u);
}

TEST(TraceIo, CsvHeaderlessDataLosesOnlyTheFirstLineAtWorst) {
  // Headerless data: every row parses, nothing is mistaken for a header.
  std::stringstream ss("100,7,1024,0,0\n200,8,2048,1,1\n");
  CsvReadStats stats;
  const TraceSet ts = read_csv(ss, &stats);
  EXPECT_FALSE(stats.had_header);
  EXPECT_EQ(stats.rows, 2u);
  EXPECT_EQ(ts.size(), 2u);
}

TEST(TraceIo, CsvFileMissingThrows) {
  EXPECT_THROW(read_csv_file("/nonexistent/dir/trace.csv"),
               std::runtime_error);
}

TEST(TraceIo, CsvTrailingDelimiterIsRepairedNotSkipped) {
  std::stringstream ss(
      "timestamp_us,sector,size_bytes,is_write,outstanding\n"
      "100,7,1024,0,0,\n"    // trailing comma: repairable
      "200,8,2048,1,1\n");
  CsvReadStats stats;
  const TraceSet ts = read_csv(ss, &stats);
  EXPECT_EQ(stats.rows, 2u);
  EXPECT_EQ(stats.repaired, 1u);
  EXPECT_EQ(stats.skipped, 0u);
  ASSERT_EQ(ts.size(), 2u);
  EXPECT_EQ(ts.records()[0].timestamp, 100u);
}

TEST(TraceIo, CsvWhitespacePaddingIsRepairedNotSkipped) {
  std::stringstream ss("100, 7 ,1024,\t0,0\n200,8,2048,1,1\n");
  CsvReadStats stats;
  const TraceSet ts = read_csv(ss, &stats);
  EXPECT_EQ(stats.rows, 2u);
  EXPECT_EQ(stats.repaired, 1u);
  EXPECT_EQ(stats.skipped, 0u);
  ASSERT_EQ(ts.size(), 2u);
  EXPECT_EQ(ts.records()[0].sector, 7u);
  EXPECT_EQ(ts.records()[0].is_write, 0);
}

TEST(TraceIo, CsvRepairedAndSkippedAreDistinct) {
  // One repairable row, one unrecoverable row (out-of-range sector): the
  // caller can tell formatting damage (kept) from data damage (lost).
  std::stringstream ss(
      "100,7,1024,0,0\n"
      "150,8,1024,1,2, \n"           // trailing comma + space: repaired
      "200,4294967296,1024,0,0\n");  // sector overflows u32: skipped
  CsvReadStats stats;
  const TraceSet ts = read_csv(ss, &stats);
  EXPECT_EQ(stats.rows, 2u);
  EXPECT_EQ(stats.repaired, 1u);
  EXPECT_EQ(stats.skipped, 1u);
  ASSERT_EQ(ts.size(), 2u);
  EXPECT_EQ(ts.records()[1].timestamp, 150u);
  EXPECT_EQ(ts.records()[1].outstanding, 2u);
}

TEST(TraceIo, CsvCrLfWithTrailingDelimiter) {
  // CRLF stripping happens before field parsing, so "…,1,\r\n" is exactly
  // one repair (the trailing comma), not two.
  std::stringstream ss("100,7,1024,0,1,\r\n");
  CsvReadStats stats;
  const TraceSet ts = read_csv(ss, &stats);
  EXPECT_EQ(stats.rows, 1u);
  EXPECT_EQ(stats.repaired, 1u);
  ASSERT_EQ(ts.size(), 1u);
  EXPECT_EQ(ts.records()[0].outstanding, 1u);
}

TEST(TraceIo, CsvEmptyFieldRowIsSkipped) {
  // ",,,," parses to five empty fields — malformed, not repairable.
  std::stringstream ss("100,7,1024,0,0\n,,,,\n");
  CsvReadStats stats;
  read_csv(ss, &stats);
  EXPECT_EQ(stats.rows, 1u);
  EXPECT_EQ(stats.skipped, 1u);
  EXPECT_EQ(stats.repaired, 0u);
}

}  // namespace
}  // namespace ess::trace
