#include "telemetry/esst.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/parallel.hpp"
#include "fault/fault.hpp"
#include "telemetry/crc32_impl.hpp"
#include "telemetry/esst_codec.hpp"
#include "telemetry/esst_view.hpp"
#include "trace/io.hpp"
#include "util/rng.hpp"

namespace ess::telemetry {
namespace {

trace::TraceSet sample(std::size_t n = 100) {
  trace::TraceSet ts("esst-roundtrip", 3);
  for (std::size_t i = 0; i < n; ++i) {
    trace::Record r;
    r.timestamp = static_cast<SimTime>(i) * 1000;
    r.sector = static_cast<std::uint32_t>((i * 9973) % 1'018'080);
    r.size_bytes = 1024u << (i % 5);
    r.is_write = static_cast<std::uint8_t>(i % 3 == 0);
    r.outstanding = static_cast<std::uint16_t>(i % 7);
    ts.add(r);
  }
  ts.set_duration(sec(1));
  return ts;
}

std::string encode(const trace::TraceSet& ts, EsstMeta meta = {}) {
  std::stringstream ss;
  write_esst(ts, ss, meta);
  return ss.str();
}

/// The reader over an in-memory capture: the same view a file gets.
EsstView view_of(const std::string& bytes) {
  return EsstView(util::MmapFile::from_bytes(bytes));
}

SalvageReport verify(const EsstView& view) {
  return analysis::verify_esst(view, 1);
}

TEST(EsstFormat, Crc32MatchesKnownVector) {
  // The IEEE polynomial's canonical check value.
  EXPECT_EQ(crc32("123456789", 9), 0xcbf43926u);
  // Chaining partial blocks equals one pass.
  const std::uint32_t part = crc32("12345", 5);
  EXPECT_EQ(crc32("6789", 4, part), 0xcbf43926u);
  // More published vectors (zlib's crc32 agrees on all of these).
  EXPECT_EQ(crc32("", 0), 0x00000000u);
  EXPECT_EQ(crc32("a", 1), 0xe8b7be43u);
  EXPECT_EQ(crc32("abc", 3), 0x352441c2u);
  const char fox[] = "The quick brown fox jumps over the lazy dog";
  EXPECT_EQ(crc32(fox, sizeof fox - 1), 0x414fa339u);
}

/// The retired bytewise loop, kept here as the reference both production
/// implementations (slicing-by-8 and the carry-less-multiply fold) must
/// match bit for bit.
std::uint32_t crc32_bytewise(const void* data, std::size_t len,
                             std::uint32_t seed = 0) {
  static std::uint32_t table[256];
  static const bool init = [] {
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
      }
      table[i] = c;
    }
    return true;
  }();
  (void)init;
  const auto* p = static_cast<const std::uint8_t*>(data);
  std::uint32_t c = seed ^ 0xffffffffu;
  for (std::size_t i = 0; i < len; ++i) c = table[(c ^ p[i]) & 0xff] ^ (c >> 8);
  return c ^ 0xffffffffu;
}

TEST(EsstFormat, Crc32SlicingMatchesBytewiseOnAwkwardLengthsAndAlignments) {
  // Lengths straddling the 8-byte fold boundary and the chunk sizes the
  // format actually uses, at every alignment offset — the cases where a
  // word-at-a-time implementation can go wrong. Both slicing-by-8 itself
  // and crc32() (whichever implementation this host dispatches to).
  Rng rng(0xc7c32);
  std::vector<std::uint8_t> buf(4097 + 8);
  for (auto& b : buf) b = static_cast<std::uint8_t>(rng.uniform(256));
  for (const std::size_t len : {0u, 1u, 7u, 8u, 9u, 15u, 16u, 17u, 63u,
                                4095u, 4096u, 4097u}) {
    for (std::size_t align = 0; align < 8; ++align) {
      const std::uint8_t* p = buf.data() + align;
      EXPECT_EQ(crc32(p, len), crc32_bytewise(p, len))
          << "len=" << len << " align=" << align;
      EXPECT_EQ(crc::slicing8(p, len, 0), crc32_bytewise(p, len))
          << "len=" << len << " align=" << align;
      // Seed chaining has to agree too — the chunk CRC chains payload into
      // footer, so a seeded mismatch would corrupt every capture.
      const std::uint32_t seed = static_cast<std::uint32_t>(
          rng.uniform(0xffffffffu));
      EXPECT_EQ(crc32(p, len, seed), crc32_bytewise(p, len, seed))
          << "len=" << len << " align=" << align;
      EXPECT_EQ(crc::slicing8(p, len, seed), crc32_bytewise(p, len, seed))
          << "len=" << len << " align=" << align;
    }
  }
  // Split-anywhere chaining across the fast implementation itself.
  for (const std::size_t cut : {0u, 1u, 7u, 8u, 9u, 100u, 4096u}) {
    const std::uint32_t whole = crc32(buf.data(), buf.size());
    const std::uint32_t part = crc32(buf.data(), cut);
    EXPECT_EQ(crc32(buf.data() + cut, buf.size() - cut, part), whole)
        << "cut=" << cut;
  }
}

TEST(EsstFormat, Crc32ClmulMatchesSlicingAndBytewise) {
  if (!crc::clmul_supported()) {
    GTEST_SKIP() << "this CPU has no PCLMULQDQ";
  }
  Rng rng(0xc1a55);
  std::vector<std::uint8_t> buf(65537 + 16);
  for (auto& b : buf) b = static_cast<std::uint8_t>(rng.uniform(256));
  const auto random_seed = [&] {
    return static_cast<std::uint32_t>(rng.uniform(0xffffffffu));
  };
  const auto expect_all_agree = [&](std::size_t off, std::size_t len,
                                    std::uint32_t seed) {
    const std::uint8_t* p = buf.data() + off;
    const std::uint32_t want = crc32_bytewise(p, len, seed);
    EXPECT_EQ(crc::clmul(p, len, seed), want)
        << "off=" << off << " len=" << len << " seed=" << seed;
    EXPECT_EQ(crc::slicing8(p, len, seed), want)
        << "off=" << off << " len=" << len << " seed=" << seed;
  };

  // Every length up to 300 (under, at and past the 64-byte fold and the
  // 16-byte blocks), page- and 64 KB-sized ones, every multiple of 16 and
  // 64 ± 1 up to 1 KB; each at 16 alignments, seed 0 and a random seed.
  std::vector<std::size_t> lens;
  for (std::size_t len = 0; len <= 300; ++len) lens.push_back(len);
  for (const std::size_t len : {4095u, 4096u, 4097u, 65535u, 65536u, 65537u}) {
    lens.push_back(len);
  }
  for (std::size_t len = 16; len <= 1024; len += 16) lens.push_back(len);
  for (std::size_t len = 64; len <= 1024; len += 64) {
    lens.push_back(len - 1);
    lens.push_back(len + 1);
  }
  for (const std::size_t len : lens) {
    for (std::size_t align = 0; align < 16; ++align) {
      expect_all_agree(align, len, 0);
      expect_all_agree(align, len, random_seed());
    }
  }

  // Random (offset, length, seed) triples.
  for (int i = 0; i < 2000; ++i) {
    const auto len = static_cast<std::size_t>(rng.uniform(8192));
    const auto off = static_cast<std::size_t>(rng.uniform(buf.size() - len));
    expect_all_agree(off, len, random_seed());
  }

  // Seed chaining with the split on either side of the first 64-byte block
  // and of the 16-byte blocks after it: the fold takes the seed in its
  // first lane, slicing-by-8 in its running state, and either may carry
  // the other's result.
  for (const std::size_t total : {128u, 200u, 1000u}) {
    const std::uint32_t whole = crc32_bytewise(buf.data(), total);
    for (std::size_t cut = 48; cut <= 144 && cut <= total; ++cut) {
      const std::uint8_t* p = buf.data();
      EXPECT_EQ(crc::clmul(p + cut, total - cut, crc::clmul(p, cut, 0)), whole)
          << "total=" << total << " cut=" << cut;
      EXPECT_EQ(crc::clmul(p + cut, total - cut, crc::slicing8(p, cut, 0)),
                whole)
          << "total=" << total << " cut=" << cut;
      EXPECT_EQ(crc::slicing8(p + cut, total - cut, crc::clmul(p, cut, 0)),
                whole)
          << "total=" << total << " cut=" << cut;
    }
  }
}

TEST(EsstFormat, FastVarintEncoderMatchesReferenceEncoder) {
  // put_uvarint_fast must emit byte-for-byte what the push_back reference
  // encoder emits, for every width class (1..10 bytes) and around each
  // 7-bit group boundary.
  std::vector<std::uint64_t> values = {0, 1, 0x7f};
  for (int bits = 7; bits <= 63; bits += 7) {
    const std::uint64_t edge = 1ull << bits;
    values.push_back(edge - 1);
    values.push_back(edge);
    values.push_back(edge + 1);
  }
  values.push_back(~0ull);
  Rng rng(123);
  for (int i = 0; i < 200; ++i) {
    values.push_back(rng.uniform(~0ull));
  }
  for (const std::uint64_t v : values) {
    std::vector<std::uint8_t> want;
    codec::put_uvarint(want, v);
    std::uint8_t got[codec::kMaxVarintBytes] = {};
    const std::uint8_t* end = codec::put_uvarint_fast(got, v);
    ASSERT_EQ(static_cast<std::size_t>(end - got), want.size()) << v;
    EXPECT_EQ(std::memcmp(got, want.data(), want.size()), 0) << v;
    // And the fast decoder inverts the fast encoder.
    std::uint64_t back = 0;
    EXPECT_EQ(codec::get_uvarint_fast(got, back), end);
    EXPECT_EQ(back, v);
  }
  for (const std::int64_t v :
       {std::int64_t{0}, std::int64_t{-1}, std::int64_t{1}, std::int64_t{-64},
        std::int64_t{64}, std::int64_t{-65}, INT64_MIN, INT64_MAX}) {
    std::vector<std::uint8_t> want;
    codec::put_svarint(want, v);
    std::uint8_t got[codec::kMaxVarintBytes] = {};
    const std::uint8_t* end = codec::put_svarint_fast(got, v);
    ASSERT_EQ(static_cast<std::size_t>(end - got), want.size()) << v;
    EXPECT_EQ(std::memcmp(got, want.data(), want.size()), 0) << v;
  }
}

TEST(EsstFormat, SplicedFramedChunksWriteIdenticalBytes) {
  // A parallel merge frames chunk-aligned pieces of one record stream in
  // stream-less writers and splices them in order: the file must be the
  // one writer's bytes. Cover v1 and v2, a partial final chunk, a
  // single-record capture, an empty one and empty pieces.
  for (const bool multi : {false, true}) {
    for (const std::size_t n : {0u, 1u, 100u, 1000u, 1025u}) {
      auto ts = sample(n);
      if (multi) {
        trace::TraceSet stamped("esst-roundtrip", -1);
        int i = 0;
        for (auto r : ts.records()) {
          r.node = i++ % 5;
          stamped.add(r);
        }
        stamped.set_duration(ts.duration());
        ts = std::move(stamped);
      }
      EsstMeta meta;
      meta.multi_node = multi;
      meta.records_per_chunk = 64;

      std::ostringstream serial;
      {
        EsstWriter w(serial, meta);
        w.append(ts.records().data(), ts.records().size());
        w.finish(ts.duration());
      }
      std::ostringstream spliced;
      {
        EsstWriter out(spliced, meta);
        // Pieces cut at multiples of 64 records: [0, 128), [128, 128),
        // [128, 512), [512, n); mixed single and batch appends.
        std::size_t lo = 0;
        for (const std::size_t cut : {128u, 128u, 512u, 1u << 20}) {
          const std::size_t hi = std::min(cut, ts.size());
          if (hi < lo) continue;
          EsstWriter piece(meta);
          std::size_t i = lo;
          for (; i < std::min(lo + 3, hi); ++i) piece.append(ts.records()[i]);
          piece.append(ts.records().data() + i, hi - i);
          piece.finish();
          EXPECT_EQ(piece.has_framed_chunks(), hi > lo);
          out.append_chunks(piece.take_chunks());
          EXPECT_FALSE(piece.has_framed_chunks());
          lo = hi;
        }
        EXPECT_EQ(out.records_written(), ts.size());
        out.finish(ts.duration());
      }
      EXPECT_EQ(spliced.str(), serial.str())
          << "multi=" << multi << " n=" << n;
    }
  }
}

TEST(EsstFormat, AppendChunksInsideAnOpenChunkIsRejected) {
  std::ostringstream os;
  EsstWriter w(os, {});
  w.append(sample(1).records()[0]);
  EXPECT_THROW(w.append_chunks({}), std::logic_error);
}

TEST(EsstHardening, WriteFailureCarriesTheWriterErrorContext) {
  // A writer constructed with an error context (the output path) must name
  // it when the stream dies — "write failed" alone is useless mid-merge.
  std::stringstream backing;
  fault::FailAfterStream failing(backing, 2000);
  EsstMeta meta;
  meta.records_per_chunk = 16;
  EsstWriter w(failing, meta, "node0042.esst");
  const auto ts = sample(400);
  try {
    w.append(ts.records().data(), ts.size());
    w.finish(ts.duration());
    FAIL() << "expected a write failure";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("esst: write failed"), std::string::npos) << msg;
    EXPECT_NE(msg.find("node0042.esst"), std::string::npos) << msg;
  }
}

TEST(EsstHardening, FileSinkErrorNamesThePathOnDiskFull) {
  // /dev/full fails every flush with ENOSPC: the latched sink error must
  // carry the path (and the OS reason) through the writer's context.
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP();
  EsstMeta meta;
  meta.records_per_chunk = 16;
  EsstFileSink sink("/dev/full", meta);
  const auto ts = sample(400);
  sink.on_records(ts.records().data(), ts.size());
  sink.on_finish(ts.duration());
  EXPECT_TRUE(sink.failed());
  EXPECT_NE(sink.error().find("/dev/full"), std::string::npos)
      << sink.error();
}

TEST(EsstFormat, RoundTripIdenticalRecords) {
  const auto original = sample();
  const auto restored = view_of(encode(original)).read_all();
  EXPECT_EQ(restored.experiment(), "esst-roundtrip");
  EXPECT_EQ(restored.node_id(), 3);
  EXPECT_EQ(restored.duration(), original.duration());
  ASSERT_EQ(restored.size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(restored.records()[i], original.records()[i]);
  }
}

TEST(EsstFormat, EmptyTraceRoundTrips) {
  trace::TraceSet ts("empty", 0);
  const EsstView reader = view_of(encode(ts));
  EXPECT_FALSE(reader.salvaged());
  EXPECT_EQ(reader.total_records(), 0u);
  EXPECT_TRUE(reader.read_all().empty());
}

TEST(EsstFormat, MetaFieldsSurviveTheHeader) {
  EsstMeta meta;
  meta.experiment = "geometry-check";
  meta.node_id = 12;
  meta.total_sectors = 2'036'160;
  meta.sector_bytes = 4096;
  meta.records_per_chunk = 1234;
  meta.seed = 0xdeadbeefcafe;
  meta.ram_bytes = 64ull * 1024 * 1024;
  const EsstView reader = view_of(encode(sample(10), meta));
  EXPECT_EQ(reader.meta().experiment, "geometry-check");
  EXPECT_EQ(reader.meta().node_id, 12);
  EXPECT_EQ(reader.meta().total_sectors, 2'036'160u);
  EXPECT_EQ(reader.meta().sector_bytes, 4096u);
  EXPECT_EQ(reader.meta().records_per_chunk, 1234u);
  EXPECT_EQ(reader.meta().seed, 0xdeadbeefcafeull);
  EXPECT_EQ(reader.meta().ram_bytes, 64ull * 1024 * 1024);
}

TEST(EsstFormat, NonMonotonicTimestampsSurviveZigzag) {
  // Deltas may be negative (multi-node merges, clock rebases); the
  // signed-varint encoding must not care.
  trace::TraceSet ts("zigzag", 0);
  const SimTime stamps[] = {500, 100, 900, 899, 0, 1'000'000};
  for (SimTime t : stamps) {
    trace::Record r;
    r.timestamp = t;
    r.sector = 777;
    r.size_bytes = 1024;
    ts.add(r);
  }
  const auto restored = view_of(encode(ts)).read_all();
  ASSERT_EQ(restored.size(), ts.size());
  for (std::size_t i = 0; i < ts.size(); ++i) {
    EXPECT_EQ(restored.records()[i].timestamp, ts.records()[i].timestamp);
  }
}

TEST(EsstFormat, MultiChunkLayoutAndIndex) {
  EsstMeta meta;
  meta.records_per_chunk = 16;
  const auto original = sample(100);
  const EsstView reader = view_of(encode(original, meta));
  EXPECT_FALSE(reader.salvaged());
  ASSERT_EQ(reader.chunks().size(), 7u);  // ceil(100 / 16)
  EXPECT_EQ(reader.total_records(), 100u);
  std::uint32_t seen = 0;
  std::vector<trace::Record> records;
  for (std::size_t i = 0; i < reader.chunks().size(); ++i) {
    const auto& c = reader.chunks()[i];
    reader.decode_chunk(i, records);
    ASSERT_EQ(records.size(), c.records);
    // Index ranges must describe the chunk contents exactly.
    for (const auto& r : records) {
      EXPECT_GE(r.timestamp, c.ts_first);
      EXPECT_LE(r.timestamp, c.ts_last);
      EXPECT_GE(r.sector, c.sector_min);
      EXPECT_LE(r.sector, c.sector_max);
      EXPECT_EQ(r, original.records()[seen]);
      ++seen;
    }
  }
  EXPECT_EQ(seen, 100u);
}

TEST(EsstFormat, TruncatedFileSalvagesWholeChunks) {
  EsstMeta meta;
  meta.records_per_chunk = 16;
  const auto original = sample(100);
  std::string data = encode(original, meta);
  // Cut mid-file: the index is gone and some chunk is torn.
  data.resize(data.size() * 3 / 5);
  const EsstView reader = view_of(data);
  EXPECT_TRUE(reader.salvaged());
  const auto restored = reader.read_all();
  EXPECT_GT(restored.size(), 0u);
  EXPECT_LT(restored.size(), original.size());
  EXPECT_EQ(restored.size() % 16, 0u);  // only whole chunks survive
  for (std::size_t i = 0; i < restored.size(); ++i) {
    EXPECT_EQ(restored.records()[i], original.records()[i]);
  }
}

TEST(EsstFormat, TruncationJustAfterLastChunkLosesOnlyTheIndex) {
  EsstMeta meta;
  meta.records_per_chunk = 16;
  const auto original = sample(64);
  std::string data = encode(original, meta);
  // Find where the index starts by reading the intact file first.
  const EsstView intact = view_of(data);
  const auto& last = intact.chunks().back();
  std::uint32_t payload_bytes = 0;
  std::memcpy(&payload_bytes, data.data() + last.offset + 4, 4);
  const std::uint64_t index_at = last.offset + 8 + payload_bytes + 28;
  data.resize(index_at);

  const EsstView reader = view_of(data);
  EXPECT_TRUE(reader.salvaged());
  EXPECT_EQ(reader.corrupt_chunks(), 0u);
  const auto restored = reader.read_all();
  ASSERT_EQ(restored.size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(restored.records()[i], original.records()[i]);
  }
}

TEST(EsstFormat, CorruptChunkIsSkippedByCrc) {
  EsstMeta meta;
  meta.records_per_chunk = 16;
  const auto original = sample(100);
  std::string data = encode(original, meta);
  const EsstView intact = view_of(data);
  ASSERT_GE(intact.chunks().size(), 3u);
  // Flip a payload byte inside chunk 1 (offset + framing header + 2).
  const std::uint64_t at = intact.chunks()[1].offset + 8 + 2;
  data[static_cast<std::size_t>(at)] ^= 0x5a;

  const EsstView reader = view_of(data);
  // The trailing index is still intact, so no salvage scan...
  EXPECT_FALSE(reader.salvaged());
  // ...but decoding chunk 1 fails its CRC,
  std::vector<trace::Record> recs;
  EXPECT_THROW(reader.decode_chunk(1, recs), std::runtime_error);
  // and read_all() drops exactly that chunk.
  const auto restored = reader.read_all();
  EXPECT_EQ(verify(reader).chunks_lost, 1u);
  EXPECT_EQ(restored.size(), original.size() - 16);
}

TEST(EsstFormat, CorruptIndexFallsBackToScan) {
  const auto original = sample(50);
  std::string data = encode(original);
  data[data.size() - 1] ^= 0xff;  // break the trailer magic
  const EsstView reader = view_of(data);
  EXPECT_TRUE(reader.salvaged());
  const auto restored = reader.read_all();
  ASSERT_EQ(restored.size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(restored.records()[i], original.records()[i]);
  }
}

TEST(EsstFormat, BadHeaderThrows) {
  EXPECT_THROW(view_of("not an esst file at all, nowhere near long enough"),
               std::runtime_error);

  std::string data = encode(sample(10));
  data[3] ^= 0x01;  // damage the magic
  EXPECT_THROW(view_of(data), std::runtime_error);

  std::string data2 = encode(sample(10));
  data2[40] ^= 0x01;  // damage a header field: header CRC must catch it
  EXPECT_THROW(view_of(data2), std::runtime_error);
}

TEST(EsstFormat, IsEsstSniffsAndRestoresPosition) {
  std::stringstream esst(encode(sample(5)));
  EXPECT_TRUE(is_esst(esst));
  EXPECT_EQ(esst.tellg(), std::streampos(0));

  std::stringstream csv("timestamp_us,sector,size_bytes,is_write,outstanding\n");
  EXPECT_FALSE(is_esst(csv));
}

TEST(EsstFormat, FilteredReadSkipsChunksViaIndex) {
  // 10 chunks of 10 records, timestamps 0..99 s, so chunk k covers
  // [10k, 10k+9] seconds.
  trace::TraceSet ts("filter", 0);
  for (int i = 0; i < 100; ++i) {
    trace::Record r;
    r.timestamp = sec(static_cast<std::uint64_t>(i));
    r.sector = static_cast<std::uint32_t>(1000 + i);
    r.size_bytes = 1024;
    r.is_write = static_cast<std::uint8_t>(i % 2);
    ts.add(r);
  }
  ts.set_duration(sec(100));
  EsstMeta meta;
  meta.records_per_chunk = 10;
  const EsstView reader = view_of(encode(ts, meta));
  ASSERT_EQ(reader.chunks().size(), 10u);

  EsstView::Filter f;
  f.ts_min = sec(34);
  f.ts_max = sec(47);
  std::size_t skipped = 0;
  const auto kept = reader.read_filtered(f, &skipped);
  EXPECT_EQ(kept.size(), 14u);  // t = 34..47 inclusive
  EXPECT_EQ(skipped, 8u);       // only chunks 3 and 4 decoded
  for (const auto& r : kept.records()) {
    EXPECT_GE(r.timestamp, f.ts_min);
    EXPECT_LE(r.timestamp, f.ts_max);
  }

  EsstView::Filter writes_only;
  writes_only.rw = 1;
  const auto writes = reader.read_filtered(writes_only);
  EXPECT_EQ(writes.size(), 50u);
  for (const auto& r : writes.records()) EXPECT_EQ(r.is_write, 1);

  EsstView::Filter sectors;
  sectors.sector_min = 1000;
  sectors.sector_max = 1009;
  std::size_t sector_skipped = 0;
  const auto low = reader.read_filtered(sectors, &sector_skipped);
  EXPECT_EQ(low.size(), 10u);
  EXPECT_EQ(sector_skipped, 9u);  // sector ranges track chunks here
}

TEST(EsstFormat, FileSinkStreamsARunShapedCapture) {
  const std::string path = ::testing::TempDir() + "/esst_sink_test.esst";
  EsstMeta meta;
  meta.experiment = "sink";
  meta.node_id = 1;
  meta.records_per_chunk = 32;
  const auto original = sample(200);
  {
    EsstFileSink sink(path, meta);
    for (const auto& r : original.records()) sink.on_record(r);
    sink.on_finish(original.duration());
    EXPECT_EQ(sink.records_written(), original.size());
  }
  const auto restored = read_esst_file(path);
  EXPECT_EQ(restored.experiment(), "sink");
  EXPECT_EQ(restored.duration(), original.duration());
  ASSERT_EQ(restored.size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(restored.records()[i], original.records()[i]);
  }
}

TEST(EsstFormat, WriterWithoutFinishStillYieldsReadableFile) {
  // Destructor-finishes: duration falls back to the span of records seen.
  std::stringstream ss;
  const auto original = sample(40);
  {
    EsstWriter w(ss, EsstMeta{});
    for (const auto& r : original.records()) w.append(r);
  }
  const EsstView reader = view_of(ss.str());
  EXPECT_FALSE(reader.salvaged());
  EXPECT_EQ(reader.total_records(), 40u);
  EXPECT_EQ(reader.duration(), original.records().back().timestamp);
}

TEST(EsstFormat, DenseTraceCompressesWellBelowCsv) {
  // Run-shaped trace: ~1 s cadence, a few hot sectors, 1 KB writes — the
  // baseline profile. ESST must come in at <= 40% of the CSV bytes.
  trace::TraceSet ts("compression", 0);
  const std::uint32_t hot[] = {45'000, 99'184, 16'900, 204'280};
  for (int i = 0; i < 2000; ++i) {
    trace::Record r;
    r.timestamp = sec(static_cast<std::uint64_t>(i)) + (i % 997) * 131;
    r.sector = hot[i % 4] + static_cast<std::uint32_t>(i % 16) * 2;
    r.size_bytes = (i % 10 == 0) ? 4096 : 1024;
    r.is_write = static_cast<std::uint8_t>(i % 20 != 0);
    r.outstanding = static_cast<std::uint16_t>(i % 3);
    ts.add(r);
  }
  ts.set_duration(sec(2000));

  std::stringstream csv;
  trace::write_csv(ts, csv);
  const auto esst = encode(ts);
  EXPECT_LE(esst.size(), csv.str().size() * 2 / 5)
      << "ESST " << esst.size() << " bytes vs CSV " << csv.str().size();

  const auto restored = view_of(esst).read_all();
  ASSERT_EQ(restored.size(), ts.size());
  for (std::size_t i = 0; i < ts.size(); ++i) {
    EXPECT_EQ(restored.records()[i], ts.records()[i]);
  }
}

// ---- hardening: drop accounting, failing media, verify() ----

TEST(EsstHardening, DropCountSurvivesTheTrailer) {
  std::stringstream ss;
  {
    EsstWriter w(ss, EsstMeta{});
    const auto ts = sample(20);  // keep alive: .records() of a temporary
    for (const auto& r : ts.records()) w.append(r);
    w.set_dropped_records(37);
    w.finish(sec(1));
  }
  const EsstView reader = view_of(ss.str());
  EXPECT_FALSE(reader.salvaged());
  EXPECT_EQ(reader.capture_dropped(), 37u);

  const auto rep = verify(reader);
  EXPECT_TRUE(rep.index_ok);
  EXPECT_EQ(rep.capture_dropped, 37u);
  EXPECT_EQ(rep.records_kept, 20u);
  EXPECT_EQ(rep.records_lost, 0u);
  EXPECT_FALSE(rep.clean());  // lossy at capture time => not clean
}

TEST(EsstHardening, LegacyV1TrailerStillReads) {
  // Synthesize a v1 (40-byte, "ESSTIDX1") trailer from a v2 file by
  // rewriting the tail: drop the 8-byte drop count and re-stamp the magic.
  std::string data = encode(sample(30));
  ASSERT_GE(data.size(), 48u);
  ASSERT_EQ(data.substr(data.size() - 8), "ESSTIDX2");
  std::string v1 = data.substr(0, data.size() - 16);  // keep bytes 0..31
  v1 += "ESSTIDX1";
  const EsstView reader = view_of(v1);
  EXPECT_FALSE(reader.salvaged());
  EXPECT_EQ(reader.total_records(), 30u);
  EXPECT_EQ(reader.capture_dropped(), 0u);  // v1 carries no drop count
}

TEST(EsstHardening, FileSinkLatchesStreamFailureInsteadOfThrowing) {
  // The capture medium dies mid-run: the sink goes quiet, the drain path
  // never sees an exception, and the partial file salvages.
  std::stringstream backing;
  fault::FailAfterStream failing(backing, 2000);
  EsstMeta meta;
  meta.records_per_chunk = 16;
  EsstFileSink sink(failing, meta);
  const auto original = sample(400);
  for (const auto& r : original.records()) {
    ASSERT_NO_THROW(sink.on_record(r));
  }
  ASSERT_NO_THROW(sink.on_finish(original.duration()));
  EXPECT_TRUE(sink.failed());
  EXPECT_FALSE(sink.error().empty());

  const EsstView reader = view_of(backing.str());
  EXPECT_TRUE(reader.salvaged());  // no index: the writer died first
  EXPECT_GT(reader.total_records(), 0u);
  EXPECT_LT(reader.total_records(), original.size());
  const auto rep = verify(reader);
  EXPECT_FALSE(rep.clean());
  EXPECT_FALSE(rep.index_ok);
}

TEST(EsstHardening, VerifyCleanOnHealthyFile) {
  const EsstView reader = view_of(encode(sample(50)));
  const auto rep = verify(reader);
  EXPECT_TRUE(rep.clean());
  EXPECT_TRUE(rep.index_ok);
  EXPECT_EQ(rep.chunks_kept, reader.chunks().size());
  EXPECT_EQ(rep.chunks_lost, 0u);
  EXPECT_EQ(rep.records_kept, 50u);
  EXPECT_EQ(rep.records_lost, 0u);
  EXPECT_TRUE(rep.records_lost_exact);
  EXPECT_FALSE(rep.first_bad_offset.has_value());
}

TEST(EsstHardening, VerifyCountsChunkLossExactlyWhenIndexSurvives) {
  EsstMeta meta;
  meta.records_per_chunk = 16;
  std::string data = encode(sample(100), meta);
  const EsstView index_reader = view_of(data);
  ASSERT_EQ(index_reader.chunks().size(), 7u);
  // Flip a payload byte inside the third chunk; the index (at the tail) is
  // untouched, so the loss is exact: that chunk's 16 records.
  const auto& victim = index_reader.chunks()[2];
  data[victim.offset + 9] ^= 0x40;

  const EsstView reader = view_of(data);
  EXPECT_FALSE(reader.salvaged());
  const auto rep = verify(reader);
  EXPECT_TRUE(rep.index_ok);
  EXPECT_EQ(rep.chunks_kept, 6u);
  EXPECT_EQ(rep.chunks_lost, 1u);
  EXPECT_EQ(rep.records_kept, 84u);
  EXPECT_EQ(rep.records_lost, 16u);
  EXPECT_TRUE(rep.records_lost_exact);
  EXPECT_EQ(rep.first_bad_offset, victim.offset);
  EXPECT_FALSE(rep.clean());
}

TEST(EsstHardening, VerifyReportsScanLossesAfterTruncation) {
  EsstMeta meta;
  meta.records_per_chunk = 16;
  std::string data = encode(sample(100), meta);
  // Cut deep into the file: the index goes, and the tail chunk is cut
  // mid-body. The reader salvages the complete chunks; verify() reports
  // the damage as approximate loss.
  data.resize(data.size() * 55 / 100);
  const EsstView reader = view_of(data);
  EXPECT_TRUE(reader.salvaged());
  const auto rep = verify(reader);
  EXPECT_FALSE(rep.index_ok);
  EXPECT_GT(rep.chunks_kept, 0u);
  EXPECT_GT(rep.records_kept, 0u);
  EXPECT_LT(rep.records_kept, 100u);
  EXPECT_FALSE(rep.records_lost_exact);
  EXPECT_FALSE(rep.clean());
}

TEST(EsstHardening, CorruptFileHelperDamageIsDetectedByVerify) {
  // End-to-end with the fault helpers: write a capture to disk, run the
  // seeded corruption pass, confirm verify() sees it and read_all() still
  // returns the survivors.
  const std::string path = ::testing::TempDir() + "/esst_corrupt_test.esst";
  EsstMeta meta;
  meta.records_per_chunk = 16;
  write_esst_file(sample(100), path, meta);

  fault::TraceIoFaults f;
  f.truncate_tail_bytes = 64;  // clips into the trailer/index
  f.bitflips = 4;
  const auto sum = fault::corrupt_file(path, f, /*seed=*/3);
  EXPECT_EQ(sum.truncated_bytes, 64u);
  EXPECT_EQ(sum.flipped_offsets.size(), 4u);

  const EsstView reader(path);
  EXPECT_TRUE(reader.salvaged());
  const auto rep = verify(reader);
  EXPECT_FALSE(rep.clean());
  EXPECT_NO_THROW({
    const auto ts = reader.read_all();
    EXPECT_LE(ts.size(), 100u);
  });
}

}  // namespace
}  // namespace ess::telemetry
