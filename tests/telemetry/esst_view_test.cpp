// telemetry::EsstView — the one ESST reader: chunk for chunk the records
// that were written, the error contract for damaged chunks, and a salvage
// scan (never a wrong answer) when the trailing index did not survive.
#include "telemetry/esst_view.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/parallel.hpp"
#include "telemetry/esst.hpp"

namespace ess::telemetry {
namespace {

std::string tmp_path(const std::string& name) {
  return ::testing::TempDir() + "/ess_view_" + std::to_string(::getpid()) +
         "_" + name;
}

trace::TraceSet sample(std::size_t n, bool wild_deltas = false) {
  trace::TraceSet ts("view-sample", 3);
  trace::Record r;
  for (std::size_t i = 0; i < n; ++i) {
    if (wild_deltas) {
      // Swing every field hard so the varints span 1..10 bytes: the decode
      // fast path and its checked tail both get real work.
      r.timestamp = (i % 3 == 0) ? i * 1'000'000'000ull : i;
      r.sector = (i % 2 == 0) ? 0u : 0xfffffff0u;
      r.size_bytes = 1u << (i % 31);
      r.outstanding = static_cast<std::uint16_t>(i * 2'243);
    } else {
      r.timestamp = i * 1'000;
      r.sector = static_cast<std::uint32_t>(10'000 + (i % 64) * 8);
      r.size_bytes = 4096;
      r.outstanding = static_cast<std::uint16_t>(i % 4);
    }
    r.is_write = static_cast<std::uint8_t>(i % 3 != 0);
    ts.add(r);
  }
  ts.set_duration(n * 1'000 + 5);
  return ts;
}

std::string write_capture(const trace::TraceSet& ts,
                          std::uint32_t records_per_chunk,
                          const std::string& name) {
  const auto path = tmp_path(name);
  EsstMeta meta;
  meta.records_per_chunk = records_per_chunk;
  write_esst_file(ts, path, meta);
  return path;
}

std::string slurp(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  std::stringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

void spill(const std::string& path, const std::string& bytes) {
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
}

/// Records [first, first + n) of `ts`, as one chunk should decode them.
std::vector<trace::Record> slice(const trace::TraceSet& ts, std::size_t first,
                                 std::size_t n) {
  const auto& all = ts.records();
  return {all.begin() + static_cast<std::ptrdiff_t>(first),
          all.begin() + static_cast<std::ptrdiff_t>(
                            std::min(first + n, all.size()))};
}

TEST(EsstView, AgreesWithStreamingReaderChunkForChunk) {
  const auto ts = sample(1'000);
  const auto path = write_capture(ts, 64, "parity.esst");

  EsstView view(path);

  ASSERT_FALSE(view.salvaged());
  EXPECT_EQ(view.meta().experiment, ts.experiment());
  EXPECT_EQ(view.meta().node_id, ts.node_id());
  EXPECT_FALSE(view.meta().multi_node);
  EXPECT_EQ(view.duration(), ts.duration());
  EXPECT_EQ(view.trailer_records(), ts.size());
  EXPECT_EQ(view.total_records(), ts.size());
  ASSERT_EQ(view.chunks().size(), (ts.size() + 63) / 64);
  ASSERT_GT(view.chunks().size(), 4u);  // a real multi-chunk file

  std::vector<trace::Record> got;
  for (std::size_t i = 0; i < view.chunks().size(); ++i) {
    view.decode_chunk(i, got);
    EXPECT_EQ(got, slice(ts, i * 64, 64)) << "chunk " << i;
  }
  std::remove(path.c_str());
}

TEST(EsstView, WildDeltaVarintsDecodeIdentically) {
  // Long (up to 10-byte) varint encodings plus a short tail chunk: the
  // branch-light fast path and the checked tail must both reproduce the
  // written records exactly.
  const auto ts = sample(515, /*wild_deltas=*/true);
  const auto path = write_capture(ts, 32, "wild.esst");

  EsstView view(path);
  ASSERT_FALSE(view.salvaged());

  std::vector<trace::Record> got;
  std::size_t records = 0;
  for (std::size_t i = 0; i < view.chunks().size(); ++i) {
    view.decode_chunk(i, got);
    EXPECT_EQ(got, slice(ts, i * 32, 32)) << "chunk " << i;
    records += got.size();
  }
  EXPECT_EQ(records, 515u);
  std::remove(path.c_str());
}

TEST(EsstView, MultiNodeCapturesKeepPerRecordNodes) {
  trace::TraceSet ts("view-v2", -1);
  for (std::size_t i = 0; i < 300; ++i) {
    trace::Record r;
    r.timestamp = i * 500;
    r.sector = static_cast<std::uint32_t>(i * 16);
    r.size_bytes = 1024;
    r.node = static_cast<std::int32_t>(i % 7);
    ts.add(r);
  }
  ts.set_duration(300 * 500);
  const auto path = tmp_path("v2.esst");
  EsstMeta meta;
  meta.records_per_chunk = 64;
  meta.multi_node = true;
  write_esst_file(ts, path, meta);

  EsstView view(path);
  ASSERT_FALSE(view.salvaged());
  EXPECT_TRUE(view.meta().multi_node);
  std::vector<trace::Record> recs;
  std::size_t i = 0;
  for (std::size_t c = 0; c < view.chunks().size(); ++c) {
    view.decode_chunk(c, recs);
    for (const auto& r : recs) {
      EXPECT_EQ(r.node, static_cast<std::int32_t>(i % 7));
      ++i;
    }
  }
  EXPECT_EQ(i, 300u);
  std::remove(path.c_str());
}

TEST(EsstView, ChunkSpansTileThePayloadRegion) {
  const auto path = write_capture(sample(640), 64, "spans.esst");
  EsstView view(path);
  ASSERT_FALSE(view.salvaged());
  std::uint64_t bytes = 0;
  for (std::size_t i = 0; i < view.chunks().size(); ++i) {
    const auto span = view.chunk_span(i);
    ASSERT_NE(span.payload, nullptr);
    EXPECT_EQ(span.footer, span.payload + span.payload_len);
    EXPECT_EQ(view.chunk_bytes(i), 8 + span.payload_len + 28);
    bytes += view.chunk_bytes(i);
  }
  // Chunks tile [header, index): their framed sizes account for every byte
  // between the fixed header and the trailing index.
  const std::uint64_t index_and_trailer =
      view.chunks().size() * 36 + 48;  // entries + "ESSTIDX2" trailer
  EXPECT_EQ(128 + bytes + index_and_trailer, view.file_size());
  std::remove(path.c_str());
}

TEST(EsstView, DamagedChunkThrowsOthersDecode) {
  const auto path = write_capture(sample(640), 64, "damage.esst");
  auto bytes = slurp(path);
  {
    EsstView probe(path);
    ASSERT_FALSE(probe.salvaged());
    bytes[probe.chunks()[3].offset + 12] ^= 0x20;  // payload bit flip
  }
  spill(path, bytes);

  EsstView view(path);
  ASSERT_FALSE(view.salvaged());  // the index is at the tail, untouched
  std::vector<trace::Record> recs;
  for (std::size_t i = 0; i < view.chunks().size(); ++i) {
    if (i == 3) {
      EXPECT_THROW(view.decode_chunk(i, recs), std::runtime_error);
    } else {
      EXPECT_NO_THROW(view.decode_chunk(i, recs));
    }
  }
  std::remove(path.c_str());
}

TEST(EsstView, TruncatedIndexTurnsIndexOkFalse) {
  const auto ts = sample(640);
  const auto path = write_capture(ts, 64, "trunc.esst");
  auto bytes = slurp(path);
  bytes.resize(bytes.size() - 64);  // trailer (and part of the index) gone
  spill(path, bytes);

  EsstView view(path);
  EXPECT_TRUE(view.salvaged());
  // Every chunk sits before the cut, so the forward scan rebuilds them all
  // and the records come back whole; only the index's promises are gone.
  ASSERT_EQ(view.chunks().size(), 10u);
  EXPECT_EQ(view.corrupt_chunks(), 0u);
  EXPECT_EQ(view.read_all().records(), ts.records());
  EXPECT_EQ(view.trailer_records(), 0u);
  const auto rep = analysis::verify_esst(view, 1);
  EXPECT_FALSE(rep.index_ok);
  EXPECT_FALSE(rep.records_lost_exact);
  EXPECT_EQ(rep.records_kept, 640u);
  EXPECT_FALSE(rep.first_bad_offset.has_value());
  EXPECT_FALSE(rep.clean());
  std::remove(path.c_str());
}

TEST(EsstView, HeaderDamageThrowsLikeTheReader) {
  const auto path = write_capture(sample(64), 64, "hdr.esst");
  auto bytes = slurp(path);
  bytes[3] = 'X';  // break the magic
  spill(path, bytes);
  EXPECT_THROW(EsstView{path}, std::runtime_error);

  spill(path, std::string("ESST00"));  // shorter than a header
  EXPECT_THROW(EsstView{path}, std::runtime_error);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ess::telemetry
