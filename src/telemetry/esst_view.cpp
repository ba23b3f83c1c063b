#include "telemetry/esst_view.hpp"

#include <algorithm>
#include <stdexcept>

#include "telemetry/esst_codec.hpp"

namespace ess::telemetry {

using namespace codec;

namespace {

util::MmapFile map_or_throw(const std::string& path) {
  try {
    return util::MmapFile(path);
  } catch (const std::runtime_error&) {
    throw std::runtime_error("cannot open " + path);
  }
}

}  // namespace

EsstView::EsstView(const std::string& path) : EsstView(map_or_throw(path)) {}

EsstView::EsstView(util::MmapFile file) : map_(std::move(file)) {
  if (map_.size() < kHeaderBytes) {
    throw std::runtime_error("esst: file too short");
  }
  meta_ = parse_header(map_.data());  // throws when the header is unusable
  if (!load_index()) salvage_scan();
}

/// Fast path: the trailing index. The trailer comes in two sizes —
/// "ESSTIDX2" (48 bytes, carries the capture drop count) and the legacy
/// "ESSTIDX1" (40 bytes) — distinguished by the magic at the very end.
bool EsstView::load_index() {
  const std::uint64_t size = map_.size();
  const std::size_t tail_len = static_cast<std::size_t>(
      std::min<std::uint64_t>(size - kHeaderBytes, kTrailer2Bytes));
  TrailerInfo trailer;
  const std::size_t trailer_bytes =
      parse_trailer(map_.data() + (size - tail_len), tail_len, trailer);
  if (trailer_bytes == 0) return false;
  // The trailer carries no CRC of its own: bound every field it claims
  // before trusting it, without overflowing on garbage.
  const std::uint64_t index_bytes =
      std::uint64_t{trailer.chunk_count} * kIndexEntryBytes;
  if (index_bytes + trailer_bytes > size ||
      trailer.index_offset != size - index_bytes - trailer_bytes ||
      trailer.index_offset < kHeaderBytes) {
    return false;
  }
  const std::uint8_t* entries = map_.data() + trailer.index_offset;
  if (crc32(entries, static_cast<std::size_t>(index_bytes)) !=
      trailer.index_crc) {
    return false;
  }
  parse_index_entries(entries, trailer.chunk_count, chunks_);
  duration_ = trailer.duration;
  trailer_records_ = trailer.total_records;
  scan_.index_ok = true;
  scan_.capture_dropped = trailer.capture_dropped;
  return true;
}

/// Rebuild the chunk list by one forward pass over the mapped bytes, keeping
/// every chunk whose CRC passes. A trailerless file carries no capture drop
/// count, and its lost-record figures come from untrusted footers, so they
/// are a lower bound.
void EsstView::salvage_scan() {
  scan_.records_lost_exact = false;
  const std::uint64_t size = map_.size();
  std::uint64_t off = kHeaderBytes;
  while (size - off >= kChunkHeaderBytes + kChunkFooterBytes) {
    ChunkSpan s;
    const Frame f = frame_at(off, s);
    // No chunk magic: the trace ends here (index/trailer bytes or garbage).
    if (f == Frame::kNotAChunk) break;
    if (f == Frame::kTorn) {
      // Chunk framing is intact but the body runs past EOF: a truncated
      // tail. Everything from `off` on is unaccounted for.
      ++scan_.chunks_lost;
      if (!scan_.first_bad_offset) scan_.first_bad_offset = off;
      break;
    }
    ChunkInfo info;
    info.offset = off;
    const std::uint32_t want = parse_chunk_footer(s.footer, info);
    if (chunk_crc(s.payload, s.payload_len, s.footer) == want) {
      chunks_.push_back(info);
      duration_ = std::max(duration_, info.ts_last);
    } else {
      ++corrupt_chunks_;
      ++scan_.chunks_lost;
      // The footer is untrusted (its CRC just failed); clamp its record
      // claim so a garbage count cannot dominate the report.
      scan_.records_lost += std::min<std::uint64_t>(
          info.records,
          meta_.records_per_chunk > 0 ? meta_.records_per_chunk : info.records);
      if (!scan_.first_bad_offset) scan_.first_bad_offset = off;
    }
    off += kChunkHeaderBytes + s.payload_len + kChunkFooterBytes;
  }
  // A tail too short for a whole frame can still start with chunk magic —
  // that is a torn chunk, not trailer bytes, and it counts as lost, however
  // much was lost before it. The loop breaks on a torn frame only with a
  // whole frame's bytes left, so this never counts that frame twice.
  ChunkSpan s;
  if (size - off < kChunkHeaderBytes + kChunkFooterBytes &&
      frame_at(off, s) == Frame::kTorn) {
    ++scan_.chunks_lost;
    if (!scan_.first_bad_offset) scan_.first_bad_offset = off;
  }
}

EsstView::Frame EsstView::frame_at(std::uint64_t offset,
                                   ChunkSpan& span) const {
  const std::uint64_t size = map_.size();
  if (offset > size || size - offset < kChunkHeaderBytes ||
      get_u32(map_.data() + offset) != kChunkMagic) {
    return Frame::kNotAChunk;
  }
  const std::uint32_t payload_bytes = get_u32(map_.data() + offset + 4);
  if (size - offset <
      kChunkHeaderBytes + std::uint64_t{payload_bytes} + kChunkFooterBytes) {
    return Frame::kTorn;
  }
  span.payload = map_.data() + offset + kChunkHeaderBytes;
  span.payload_len = payload_bytes;
  span.footer = span.payload + payload_bytes;
  return Frame::kOk;
}

std::uint64_t EsstView::total_records() const {
  std::uint64_t n = 0;
  for (const auto& c : chunks_) n += c.records;
  return n;
}

EsstView::ChunkSpan EsstView::chunk_span(std::size_t idx) const {
  ChunkSpan s;
  if (frame_at(chunks_.at(idx).offset, s) != Frame::kOk) {
    throw std::runtime_error("esst: chunk unreadable");
  }
  return s;
}

std::uint64_t EsstView::chunk_bytes(std::size_t idx) const {
  ChunkSpan s;
  const std::uint64_t payload =
      frame_at(chunks_.at(idx).offset, s) == Frame::kOk ? s.payload_len : 0;
  return kChunkHeaderBytes + payload + kChunkFooterBytes;
}

EsstView::ChunkSpan EsstView::crc_checked_span(std::size_t idx,
                                               std::uint32_t& records) const {
  const ChunkSpan s = chunk_span(idx);
  ChunkInfo info;
  const std::uint32_t want = parse_chunk_footer(s.footer, info);
  if (chunk_crc(s.payload, s.payload_len, s.footer) != want) {
    throw std::runtime_error("esst: chunk CRC mismatch");
  }
  records = info.records;
  return s;
}

void EsstView::decode_chunk(std::size_t idx,
                            std::vector<trace::Record>& out) const {
  std::uint32_t records = 0;
  const ChunkSpan s = crc_checked_span(idx, records);
  decode_payload_into(s.payload, s.payload_len, records, meta_.multi_node,
                      out);
}

std::uint32_t EsstView::check_chunk(std::size_t idx) const {
  std::uint32_t records = 0;
  const ChunkSpan s = crc_checked_span(idx, records);
  if (!payload_frames(s.payload, s.payload_len, records, meta_.multi_node)) {
    throw std::runtime_error("esst: chunk payload does not frame its records");
  }
  return records;
}

bool EsstView::Filter::chunk_may_match(const ChunkInfo& c) const {
  return c.ts_last >= ts_min && c.ts_first <= ts_max &&
         std::uint64_t{c.sector_max} >= sector_min &&
         std::uint64_t{c.sector_min} <= sector_max;
}

bool EsstView::Filter::record_matches(const trace::Record& r) const {
  if (r.timestamp < ts_min || r.timestamp > ts_max) return false;
  if (r.sector < sector_min || r.sector > sector_max) return false;
  if (rw >= 0 && (r.is_write != 0) != (rw != 0)) return false;
  return true;
}

trace::TraceSet EsstView::read_filtered(const Filter& f,
                                        std::size_t* chunks_skipped) const {
  trace::TraceSet ts(meta_.experiment, meta_.node_id);
  std::vector<trace::Record> recs;
  std::size_t skipped = 0;
  for (std::size_t i = 0; i < chunks_.size(); ++i) {
    if (!f.chunk_may_match(chunks_[i])) {
      ++skipped;
      continue;
    }
    try {
      decode_chunk(i, recs);
    } catch (const std::runtime_error&) {
      continue;  // a damaged chunk costs only its own records
    }
    for (const auto& r : recs) {
      if (f.record_matches(r)) ts.add(r);
    }
  }
  ts.set_duration(duration_);
  if (chunks_skipped != nullptr) *chunks_skipped = skipped;
  return ts;
}

void EsstView::advise_chunks(std::size_t first, std::size_t last) const {
  if (first >= last || first >= chunks_.size()) return;
  last = std::min(last, chunks_.size());
  const std::uint64_t lo = chunks_[first].offset;
  const std::uint64_t hi =
      chunks_[last - 1].offset + chunk_bytes(last - 1);
  if (hi > lo) {
    map_.advise_willneed(static_cast<std::size_t>(lo),
                         static_cast<std::size_t>(hi - lo));
  }
}

trace::TraceSet read_esst_file(const std::string& path) {
  return EsstView(path).read_all();
}

}  // namespace ess::telemetry
