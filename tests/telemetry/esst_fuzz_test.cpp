// Property test: the ESST reader against seeded mutations of real captures.
//
// A multi-chunk v1 capture and a v2 (multi-node) capture take random bit
// flips, truncations at any offset, and targeted damage to one chunk, the
// index or the trailer. Invariants checked on every mutant:
//  * nothing crashes, and only header damage throws;
//  * every record scan/verify/merge/read hand back is an original record,
//    in the original order;
//  * damage to any chunk's or the index's bytes makes verify_esst
//    unclean, and a report that claims exact loss never understates it;
//  * a salvage scan counts a torn tail even after an earlier lost chunk,
//    and counts it once;
//  * scan_esst and verify_esst agree at jobs 1, 2, 4 and 8, and on the
//    records a salvaged file lost; a merge carries those losses into its
//    trailer.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/parallel.hpp"
#include "commands.hpp"
#include "telemetry/esst_codec.hpp"
#include "telemetry/esst_view.hpp"
#include "util/rng.hpp"

namespace ess::telemetry {
namespace {

// The mutants are a few KB, far under the production per-shard byte
// floor; force tiny shards so the jobs > 1 paths really fan out.
const int kForceSharding = [] {
  ::setenv("ESS_SHARD_MIN_BYTES", "256", 1);
  return 0;
}();

constexpr std::size_t kHeaderBytes = 128;
constexpr std::size_t kTrailerBytes = 48;
constexpr std::size_t kIndexEntryBytes = 36;
constexpr std::int32_t kOtherNode = 9;  // the intact merge partner's node

struct Capture {
  std::string bytes;
  std::vector<trace::Record> records;  // as a reader returns them
  std::vector<ChunkInfo> chunks;
  std::size_t index_begin = 0;  // first index-entry byte
  std::size_t trailer_begin = 0;
};

trace::TraceSet capture_trace(bool multi_node, int node) {
  trace::TraceSet ts(multi_node ? "fuzz-v2" : "fuzz-v1", node);
  Rng rng(multi_node ? 202 : 101);
  for (std::size_t i = 0; i < 700; ++i) {
    trace::Record r;
    r.timestamp = static_cast<SimTime>(i) * 1'500 +
                  static_cast<SimTime>(rng.uniform(1'000));
    r.sector = static_cast<std::uint32_t>(rng.uniform(1'018'080));
    r.size_bytes = 1024u << rng.uniform(4);
    r.is_write = static_cast<std::uint8_t>(rng.uniform(4) != 0);
    r.outstanding = static_cast<std::uint16_t>(rng.uniform(3));
    if (multi_node) r.node = static_cast<std::int32_t>(rng.uniform(5));
    ts.add(r);
  }
  ts.set_duration(sec(2));
  return ts;
}

Capture make_capture(bool multi_node) {
  const auto ts = capture_trace(multi_node, multi_node ? -1 : 3);
  EsstMeta meta;
  meta.records_per_chunk = 48;  // 15 chunks, the last one partial
  meta.multi_node = multi_node;
  std::ostringstream os;
  write_esst(ts, os, meta);

  Capture c;
  c.bytes = os.str();
  const EsstView view(util::MmapFile::from_bytes(c.bytes));
  c.records = view.read_all().records();
  c.chunks = view.chunks();
  c.trailer_begin = c.bytes.size() - kTrailerBytes;
  c.index_begin = c.trailer_begin - c.chunks.size() * kIndexEntryBytes;
  return c;
}

struct Mutant {
  std::string bytes;
  std::string what;
  bool header_damaged = false;
  bool body_damaged = false;  // a chunk's or the index's bytes changed
  /// Set when a truncation cut a chunk after its 8-byte framing header:
  /// the torn chunk must be reported as damage at or before the cut.
  std::optional<std::size_t> torn_at;
  /// Set when the damage fixes how many chunks a report must count lost.
  std::optional<std::size_t> chunks_lost;
};

Mutant mutate(const Capture& c, Rng& rng) {
  Mutant m{c.bytes, "", false, false, std::nullopt, std::nullopt};
  const auto in = [&](std::size_t lo, std::size_t hi) {
    return lo + static_cast<std::size_t>(rng.uniform(hi - lo));
  };
  const auto flip = [&](std::size_t at) {
    m.bytes[at] = static_cast<char>(m.bytes[at] ^ (1u << rng.uniform(8)));
    m.what += " flip@" + std::to_string(at);
  };
  const auto chunk_end = [&](std::size_t k) {
    return k + 1 < c.chunks.size() ? c.chunks[k + 1].offset : c.index_begin;
  };
  switch (rng.uniform(6)) {
    case 0:  // bit flips anywhere
      for (std::uint64_t n = 1 + rng.uniform(3); n > 0; --n) {
        flip(in(0, m.bytes.size()));
      }
      break;
    case 1: {  // truncation at any offset
      const std::size_t at = in(0, m.bytes.size());
      m.bytes.resize(at);
      m.what = " truncate@" + std::to_string(at);
      for (std::size_t k = 0; k < c.chunks.size(); ++k) {
        if (at >= c.chunks[k].offset + 8 && at < chunk_end(k)) m.torn_at = at;
      }
      break;
    }
    case 2: {  // one chunk's bytes: framing, payload or footer
      const std::size_t k = in(0, c.chunks.size());
      flip(in(c.chunks[k].offset, chunk_end(k)));
      break;
    }
    case 5: {  // one chunk's payload, then a torn tail further on
      const std::size_t j = in(0, c.chunks.size() - 2);
      const std::size_t k = in(j + 1, c.chunks.size());
      flip(in(c.chunks[j].offset + 8, chunk_end(j) - 28));
      // Half the cuts leave a tail too short for a whole chunk frame.
      const std::size_t body = chunk_end(k) - c.chunks[k].offset - 8;
      const std::size_t at =
          c.chunks[k].offset + 8 + in(0, rng.chance(0.5) ? 28 : body);
      m.bytes.resize(at);
      m.what += " truncate@" + std::to_string(at);
      m.torn_at = at;
      m.chunks_lost = 2;
      break;
    }
    case 3:  // the index entries
      flip(in(c.index_begin, c.trailer_begin));
      break;
    default:  // the trailer
      flip(in(c.trailer_begin, m.bytes.size()));
      break;
  }
  // Classify by what actually changed (two flips can cancel out).
  const auto differs = [&](std::size_t lo, std::size_t hi) {
    return m.bytes.size() < hi ||
           m.bytes.compare(lo, hi - lo, c.bytes, lo, hi - lo) != 0;
  };
  m.header_damaged = differs(0, kHeaderBytes);
  m.body_damaged = differs(kHeaderBytes, c.trailer_begin);
  return m;
}

/// verify_esst as it was before the framing walk: decode every listed
/// chunk, and count what decodes as kept.
SalvageReport decode_reference(const EsstView& view) {
  SalvageReport rep = view.scan_losses();
  std::vector<trace::Record> recs;
  for (std::size_t i = 0; i < view.chunks().size(); ++i) {
    try {
      view.decode_chunk(i, recs);
      ++rep.chunks_kept;
      rep.records_kept += recs.size();
    } catch (const std::runtime_error&) {
      const ChunkInfo& c = view.chunks()[i];
      ++rep.chunks_lost;
      rep.records_lost += c.records;
      if (!rep.first_bad_offset || c.offset < *rep.first_bad_offset) {
        rep.first_bad_offset = c.offset;
      }
    }
  }
  if (view.trailer_records() > rep.records_kept + rep.records_lost) {
    rep.records_lost = view.trailer_records() - rep.records_kept;
  }
  return rep;
}

/// `got` is `want` with whole elements removed, order kept.
bool is_subsequence(const std::vector<trace::Record>& got,
                    const std::vector<trace::Record>& want) {
  std::size_t j = 0;
  for (const auto& r : got) {
    while (j < want.size() && !(want[j] == r)) ++j;
    if (j == want.size()) return false;
    ++j;
  }
  return true;
}

std::string tmp_path(const std::string& name) {
  return ::testing::TempDir() + "/ess_fuzz_" + std::to_string(::getpid()) +
         "_" + name;
}

void spill(const std::string& path, const std::string& bytes) {
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
}

std::string stats_at(const std::string& path, std::size_t jobs) {
  std::ostringstream out, err;
  EXPECT_EQ(esstrace::cmd_stats(path, out, err, jobs), 0) << err.str();
  return out.str();
}

void check_mutant(const Capture& c, const Mutant& m, const std::string& path,
                  const std::string& partner) {
  SCOPED_TRACE(m.what);
  spill(path, m.bytes);
  std::optional<EsstView> view;
  try {
    view.emplace(util::MmapFile::from_bytes(m.bytes));
  } catch (const std::runtime_error&) {
    EXPECT_TRUE(m.header_damaged) << "only header damage may throw";
    EXPECT_THROW(analysis::verify_esst(path, 1), std::runtime_error);
    EXPECT_THROW(analysis::scan_esst(path, 1), std::runtime_error);
    return;
  }
  ASSERT_FALSE(m.header_damaged) << "header damage must throw";

  // Decoded records: originals, in order.
  const auto kept = view->read_all();
  EXPECT_TRUE(is_subsequence(kept.records(), c.records));

  // verify: identical at every jobs value, honest about damage.
  const SalvageReport rep = analysis::verify_esst(path, 1);
  EXPECT_TRUE(rep == decode_reference(*view))
      << "the framing walk must report what decoding reports";
  EXPECT_EQ(rep.records_kept, kept.size());
  // Every chunk is accounted for once: listed ones kept or lost by the
  // decode pass, plus the ones the salvage scan already dropped.
  EXPECT_EQ(rep.chunks_kept + rep.chunks_lost,
            view->chunks().size() + view->scan_losses().chunks_lost);
  if (m.body_damaged) {
    EXPECT_FALSE(rep.clean());
  }
  if (rep.records_lost_exact) {
    EXPECT_GE(rep.records_kept + rep.records_lost, c.records.size());
  } else {
    EXPECT_TRUE(view->salvaged());
  }
  if (view->salvaged()) {
    // The scan keeps only CRC-clean chunks, so every listed chunk decodes.
    EXPECT_EQ(rep.chunks_kept, view->chunks().size());
  }
  if (m.torn_at) {
    EXPECT_GE(rep.chunks_lost, 1u);
    ASSERT_TRUE(rep.first_bad_offset.has_value());
    EXPECT_LE(*rep.first_bad_offset, *m.torn_at);
  }
  if (m.chunks_lost) {
    EXPECT_EQ(rep.chunks_lost, *m.chunks_lost);
  }
  for (const std::size_t jobs : {2u, 4u, 8u}) {
    EXPECT_TRUE(analysis::verify_esst(path, jobs) == rep) << "jobs=" << jobs;
  }

  // scan: sees exactly the kept records, same output at every jobs value.
  const auto scan = analysis::scan_esst(path, 1);
  EXPECT_EQ(scan.summary.records(), kept.size());
  EXPECT_EQ(scan.salvaged, view->salvaged());
  // stats counts what verify counts: the salvage scan's losses once, plus
  // decode failures (verify may add an index's unlisted records on top).
  EXPECT_LE(scan.lost_records, rep.records_lost);
  if (view->salvaged()) {
    EXPECT_EQ(scan.lost_records, rep.records_lost);
  }
  const std::string stats = stats_at(path, 1);
  for (const std::size_t jobs : {2u, 4u, 8u}) {
    EXPECT_EQ(analysis::scan_esst(path, jobs).lost_records,
              scan.lost_records)
        << "jobs=" << jobs;
    EXPECT_EQ(stats_at(path, jobs), stats) << "jobs=" << jobs;
  }

  // merge with an intact partner: the mutant's share of the output is
  // exactly its kept records, in order.
  const std::string out = path + ".merged";
  const auto res = analysis::merge_esst({path, partner}, out, 2);
  std::vector<trace::Record> mine;
  const auto merged = read_esst_file(out);
  for (const auto& r : merged.records()) {
    if (r.node == kOtherNode) continue;
    mine.push_back(r);
    if (!view->meta().multi_node) mine.back().node = 0;  // v1: stamped
  }
  EXPECT_EQ(mine, kept.records());
  EXPECT_GE(res.records_written, mine.size());
  // The intact partner loses nothing, so the merge's drop count is the
  // mutant's known loss, and the merged file is clean only without one.
  EXPECT_EQ(res.dropped_records, scan.lost_records + scan.capture_dropped);
  EXPECT_EQ(analysis::verify_esst(out, 1).clean(), res.dropped_records == 0);
  std::remove(out.c_str());
}

class EsstFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EsstFuzzTest, InvariantsHoldUnderRandomDamage) {
  static const Capture v1 = make_capture(false);
  static const Capture v2 = make_capture(true);
  ASSERT_GT(v1.chunks.size(), 10u);
  ASSERT_GT(v2.chunks.size(), 10u);

  const std::string partner = tmp_path("partner.esst");
  write_esst_file(capture_trace(false, kOtherNode), partner);
  const std::string path = tmp_path("mutant.esst");
  Rng rng(GetParam());
  for (int i = 0; i < 24; ++i) {
    const Capture& c = (i % 2 == 0) ? v1 : v2;
    check_mutant(c, mutate(c, rng), path, partner);
    if (HasFatalFailure()) break;
  }
  std::remove(path.c_str());
  std::remove(partner.c_str());
}

TEST(EsstSalvage, TornTailAfterALostChunkCountsOnce) {
  // Chunk 1's payload fails its CRC, and the file ends inside chunk 5:
  // 20 bytes in leaves a tail too short for a whole frame, 100 bytes in a
  // frame whose body runs past the end. Either way chunks 0, 2, 3 and 4
  // survive, and chunks 1 and 5 are lost, each counted once.
  const Capture c = make_capture(false);
  for (const std::size_t cut : {20u, 100u}) {
    SCOPED_TRACE("cut " + std::to_string(cut) + " bytes into chunk 5");
    std::string bytes = c.bytes;
    bytes[c.chunks[1].offset + 8 + 10] ^= 0x04;
    bytes.resize(c.chunks[5].offset + cut);
    const EsstView view(util::MmapFile::from_bytes(bytes));
    ASSERT_TRUE(view.salvaged());
    EXPECT_EQ(view.chunks().size(), 4u);
    EXPECT_EQ(view.scan_losses().chunks_lost, 2u);
    EXPECT_EQ(view.scan_losses().first_bad_offset, c.chunks[1].offset);
    const SalvageReport rep = analysis::verify_esst(view, 1);
    EXPECT_EQ(rep.chunks_kept, 4u);
    EXPECT_EQ(rep.chunks_lost, 2u);
    EXPECT_EQ(rep.records_lost, c.chunks[1].records);
  }
}

// ---- the framing walk against the decoder ----
// EsstView::check_chunk must accept exactly the chunks decode_chunk
// decodes, with the same record count. Each case is one chunk whose
// payload is damaged and then re-CRC'd, so the walk (not the CRC) judges
// it: truncated, a high bit flipped, a varint widened to 10 bytes (still
// valid) or 11 (overlong), a widened varint's continuation run laid across
// a 64-byte step of the walk, bytes appended, the footer's count off by 1.

/// A capture holding one chunk: `payload` framed with a footer claiming
/// `records`, its CRC made to match. There is no index, so the view finds
/// the chunk by its salvage scan.
std::string one_chunk_capture(const std::string& header,
                              const std::vector<std::uint8_t>& payload,
                              std::uint32_t records) {
  std::vector<std::uint8_t> frame(8 + payload.size() + 28);
  codec::put_u32(frame.data(), codec::kChunkMagic);
  codec::put_u32(frame.data() + 4, static_cast<std::uint32_t>(payload.size()));
  std::copy(payload.begin(), payload.end(), frame.begin() + 8);
  std::uint8_t* ftr = frame.data() + 8 + payload.size();
  ChunkInfo info;
  info.records = records;
  codec::put_chunk_footer_summary(ftr, info);
  codec::put_u32(ftr + 24, codec::chunk_crc(frame.data() + 8, payload.size(),
                                            ftr));
  return header + std::string(frame.begin(), frame.end());
}

/// Records whose deltas take every varint width, 1 to 10 bytes.
std::vector<trace::Record> framing_records(Rng& rng, std::size_t n,
                                           bool multi_node) {
  std::vector<trace::Record> recs(n);
  for (auto& r : recs) {
    const auto wide = [&](int bits) {
      return rng.next_u64() >> (64 - 1 - rng.uniform(bits));
    };
    r.timestamp = wide(64);
    r.sector = static_cast<std::uint32_t>(wide(32));
    r.size_bytes = static_cast<std::uint32_t>(wide(32));
    r.is_write = static_cast<std::uint8_t>(rng.uniform(2));
    r.outstanding = static_cast<std::uint16_t>(wide(16));
    if (multi_node) r.node = static_cast<std::int32_t>(wide(32));
  }
  return recs;
}

/// Byte ranges [begin, end) of the payload's varints, in order.
std::vector<std::pair<std::size_t, std::size_t>> varint_spans(
    const std::vector<std::uint8_t>& payload) {
  std::vector<std::pair<std::size_t, std::size_t>> spans;
  std::size_t begin = 0;
  for (std::size_t i = 0; i < payload.size(); ++i) {
    if ((payload[i] & 0x80) == 0) {
      spans.emplace_back(begin, i + 1);
      begin = i + 1;
    }
  }
  return spans;
}

/// Widen the varint at [b, e) to `width` bytes: its bytes all continue,
/// padded with 0x80 and closed by a zero terminator. The value is
/// unchanged; from 11 bytes on the decoder calls it overlong.
void widen(std::vector<std::uint8_t>& payload, std::size_t b, std::size_t e,
           std::size_t width) {
  if (e - b >= width) return;
  std::vector<std::uint8_t> wide(payload.begin() + b, payload.begin() + e);
  for (auto& x : wide) x |= 0x80;
  wide.resize(width - 1, 0x80);
  wide.push_back(0x00);
  payload.erase(payload.begin() + b, payload.begin() + e);
  payload.insert(payload.begin() + b, wide.begin(), wide.end());
}

TEST(EsstFraming, CheckChunkSucceedsExactlyWhenDecodeChunkDoes) {
  Rng rng(0xf4a3e);
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  for (const bool multi_node : {false, true}) {
    EsstMeta meta;
    meta.multi_node = multi_node;
    std::ostringstream os;
    write_esst(trace::TraceSet("framing", 0), os, meta);
    const std::string header = os.str().substr(0, kHeaderBytes);
    for (int trial = 0; trial < 1500; ++trial) {
      const auto recs = framing_records(
          rng, static_cast<std::size_t>(rng.uniform(120)), multi_node);
      std::vector<std::uint8_t> payload;
      ChunkInfo info;
      const auto enc = codec::encode_payload_into(recs.data(), recs.size(),
                                                  multi_node, payload, info);
      payload.resize(enc.payload_len);
      std::uint32_t records = info.records;
      const auto spans = varint_spans(payload);
      const auto pick = [&] {
        return spans[static_cast<std::size_t>(rng.uniform(spans.size()))];
      };
      std::string what;
      switch (payload.empty() ? 0 : rng.uniform(8)) {
        case 0:
          what = "intact";
          break;
        case 1:
          what = "truncated";
          payload.resize(static_cast<std::size_t>(rng.uniform(payload.size())));
          break;
        case 2: {
          const auto at = static_cast<std::size_t>(rng.uniform(payload.size()));
          payload[at] ^= 0x80;
          what = "high bit flipped at " + std::to_string(at);
          break;
        }
        case 3: {
          const std::size_t width = rng.chance(0.5) ? 10 : 11;
          const auto [b, e] = pick();
          widen(payload, b, e, width);
          what = std::to_string(width) + "-byte varint at " + std::to_string(b);
          break;
        }
        case 4: {
          // The varint that holds a 64-byte step boundary, or the last one
          // before it, widened so its run reaches across the boundary.
          const std::size_t boundary =
              64 * (1 + rng.uniform(payload.size() / 64 + 1));
          std::pair<std::size_t, std::size_t> at = spans.front();
          for (const auto& sp : spans) {
            if (sp.first <= boundary && sp.first + 8 >= boundary) at = sp;
          }
          const std::size_t width = 9 + rng.uniform(3);
          widen(payload, at.first, at.second, width);
          what = std::to_string(width) + "-byte varint across step at " +
                 std::to_string(at.first);
          break;
        }
        case 5:
          for (std::uint64_t n = 1 + rng.uniform(3); n > 0; --n) {
            payload.push_back(static_cast<std::uint8_t>(rng.uniform(256)));
          }
          what = "bytes appended";
          break;
        case 6:
          ++records;
          what = "count + 1";
          break;
        default:
          --records;
          what = "count - 1";
          break;
      }
      SCOPED_TRACE(std::string(multi_node ? "v2 " : "v1 ") + what);
      const std::string bytes = one_chunk_capture(header, payload, records);
      const EsstView view(util::MmapFile::from_bytes(bytes));
      ASSERT_EQ(view.chunks().size(), 1u);
      std::optional<std::size_t> decoded;
      std::vector<trace::Record> out;
      try {
        view.decode_chunk(0, out);
        decoded = out.size();
      } catch (const std::runtime_error&) {
      }
      std::optional<std::size_t> checked;
      try {
        checked = view.check_chunk(0);
      } catch (const std::runtime_error&) {
      }
      EXPECT_EQ(checked, decoded);
      ++(decoded ? accepted : rejected);
    }
  }
  // Both outcomes are well represented, so the walk's equivalence is
  // tested on both sides.
  EXPECT_GT(accepted, 500u);
  EXPECT_GT(rejected, 1000u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EsstFuzzTest,
                         ::testing::Values(11, 22, 33, 44, 55, 66, 77, 88));

}  // namespace
}  // namespace ess::telemetry
