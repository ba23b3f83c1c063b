// ESST: the indexed, chunked, delta-encoded on-disk trace format.
//
// The retired flat "ESSTRC01" format stored 19 bytes per record and had to
// be read front-to-back; a multi-hour capture was unseekable and a
// truncated file unreadable. ESST fixes both, following the layout used
// by production trace systems (Recorder, TraceTracker):
//
//   [header: 128 bytes, fixed, little-endian]
//     magic "ESST0001", version, node id, disk geometry (total sectors,
//     sector size), sim parameters (seed, RAM), experiment name, CRC32.
//   [chunk]*
//     Each chunk holds up to records_per_chunk (default 64 Ki) records,
//     varint delta-encoded against the previous record *within the chunk*
//     (chunks decode independently, so a reader can skip any of them):
//       zigzag(ts delta), zigzag(sector delta), zigzag(size delta),
//       uvarint(outstanding << 1 | is_write)
//     Version 2 ("multi-node", written by `esstrace merge`) appends
//       zigzag(node delta)
//     per record, so a merged per-node stream keeps each record's origin.
//     Single-node captures stay version 1 — byte-identical to before.
//     Framing: u32 chunk magic, u32 payload bytes, payload, then a footer
//     (record count, first/last timestamp, min/max sector, payload CRC32).
//   [index]
//     One entry per chunk (offset + the footer's count/ranges) and a fixed
//     48-byte trailer (chunk count, index CRC32, capture duration, total
//     records, index offset, capture drop count, magic "ESSTIDX2"). The
//     drop count is the kernel ring's overflow tally at capture time, so a
//     downstream analysis knows the file itself is a lossy record of the
//     run. Files with the 40-byte "ESSTIDX1" trailer (no drop count) are
//     still read.
//
// The reader (EsstView, esst_view.hpp) seeks to the trailer and loads the
// index; `filter`-style queries skip whole chunks whose [ts, sector] ranges
// cannot match. When the index is missing or bad (the writer died mid-run,
// the tail was truncated), it falls back to a forward scan and salvages
// every chunk whose CRC passes — a crash loses at most the unflushed chunk,
// never the file. All degraded-mode results carry a structured
// SalvageReport instead of being silently partial.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "telemetry/sink.hpp"
#include "trace/trace_set.hpp"

namespace ess::telemetry {

/// CRC-32 (IEEE 802.3, the zlib polynomial). `seed` chains partial blocks:
/// crc32(b, crc32(a)) == crc32(a+b). A carry-less-multiply fold where the
/// CPU has PCLMULQDQ, slicing-by-8 elsewhere (crc32_impl.hpp); the same
/// result either way.
std::uint32_t crc32(const void* data, std::size_t len, std::uint32_t seed = 0);

/// Fixed-header metadata. The geometry/sim fields let an analysis tool
/// interpret a trace without the config that produced it (band width checks,
/// disk-fraction coverage, reproducing the run).
struct EsstMeta {
  std::string experiment;
  std::int32_t node_id = 0;
  std::uint64_t total_sectors = 1'018'080;  // the 500 MB IDE disk
  std::uint32_t sector_bytes = 512;
  std::uint32_t records_per_chunk = 65'536;
  std::uint64_t seed = 0;
  std::uint64_t ram_bytes = 0;
  /// Multi-node record stream (format version 2): every record carries its
  /// originating node id. Set by `esstrace merge`; single-node captures
  /// leave it false and their bytes are unchanged from version 1.
  bool multi_node = false;
};

/// Per-chunk index entry (also the chunk footer's summary): enough to skip
/// the chunk without decoding it.
struct ChunkInfo {
  std::uint64_t offset = 0;  // file offset of the chunk's framing header
  std::uint32_t records = 0;
  SimTime ts_first = 0;
  SimTime ts_last = 0;
  std::uint32_t sector_min = 0;
  std::uint32_t sector_max = 0;
};

/// Whole chunks framed by a stream-less EsstWriter: the bytes exactly as a
/// stream writer writes them, and each chunk's index entry with its offset
/// counted from bytes.front(). A chunk's framing holds no file offset, so
/// the bytes can go anywhere in a file; the index entries move with them.
struct FramedChunks {
  std::vector<std::uint8_t> bytes;
  std::vector<ChunkInfo> index;
  SimTime max_ts = 0;  // largest record timestamp framed so far
};

/// Streaming writer: append records as they are emitted; chunks flush when
/// full, the index and trailer are written by finish(). Safe to use as the
/// back-end of a long capture — memory held is one chunk's record batch
/// plus the index.
///
/// Encoding is batched: records accumulate raw in a chunk-sized batch and
/// are varint-encoded + CRC'd in one pass when the chunk closes. A chunk's
/// bytes depend only on its own records, so chunks framed apart (by a
/// stream-less writer, one per part of a parallel merge) and spliced in
/// order with append_chunks() give the same file as one writer would.
class EsstWriter {
 public:
  /// `error_context` (usually the output path) is woven into write-failure
  /// messages along with errno, so "disk full" on node 900 of a 1024-node
  /// merge names the file that hit it.
  EsstWriter(std::ostream& os, EsstMeta meta, std::string error_context = {});
  /// A writer with no stream: no header, and each closed chunk is framed
  /// into memory until take_chunks() hands it over. finish() only closes
  /// the open batch.
  explicit EsstWriter(EsstMeta meta);
  ~EsstWriter();

  EsstWriter(const EsstWriter&) = delete;
  EsstWriter& operator=(const EsstWriter&) = delete;

  void append(const trace::Record& r);
  /// Bulk append: one batch-buffer splice per chunk boundary instead of a
  /// per-record call — the merge fast path hands over whole runs.
  void append(const trace::Record* r, std::size_t n);

  /// Stream-less writers: whether closed chunks wait in memory, and the
  /// hand-over of them (offsets restart at 0 for the next take).
  bool has_framed_chunks() const { return !framed_.bytes.empty(); }
  FramedChunks take_chunks();
  /// Write chunks a stream-less writer with the same meta framed, after
  /// the chunks already written. The open batch must be empty, so chunk
  /// boundaries fall where one writer would have put them.
  void append_chunks(const FramedChunks& chunks);

  /// Capture-loss accounting: records that overflowed out of the kernel
  /// ring before reaching this writer. Persisted in the trailer so readers
  /// know the capture is lossy. Cumulative; call any time before finish().
  void set_dropped_records(std::uint64_t dropped) { dropped_ = dropped; }
  std::uint64_t dropped_records() const { return dropped_; }

  /// Flush the open chunk and write index + trailer. `duration` of 0 means
  /// "span of the records seen". Idempotent; called by the destructor if
  /// the caller did not.
  void finish(SimTime duration = 0);

  std::uint64_t records_written() const { return total_records_; }

 private:
  void flush_chunk();  // encode the open batch, write (or frame) it
  void write_chunk(ChunkInfo info, const std::uint8_t* payload,
                   std::size_t len, std::uint32_t crc);
  void put(const void* p, std::size_t n);  // to the stream or framed_

  std::ostream* os_ = nullptr;  // null: stream-less, chunks go to framed_
  EsstMeta meta_;
  std::string error_context_;
  std::vector<trace::Record> batch_;   // open chunk, raw records
  std::vector<std::uint8_t> payload_;  // encode scratch
  FramedChunks framed_;                // stream-less: closed, not taken
  std::vector<ChunkInfo> index_;
  std::uint64_t offset_ = 0;  // bytes written (framed) so far
  std::uint64_t total_records_ = 0;
  std::uint64_t dropped_ = 0;
  SimTime max_ts_ = 0;
  bool finished_ = false;
};

/// A Sink that streams records into an ESST file — the trace-drain daemon's
/// on-disk back-end, and the capture side of `esstrace`.
///
/// Hardened against its own medium: when the underlying stream fails
/// mid-capture (disk full, media error under the trace file — see
/// fault::FailAfterStream), the sink latches the failure instead of
/// throwing into the drain path. The run continues untraced-to-disk; the
/// partial file remains salvageable up to the last complete chunk, and
/// failed()/error() report what happened.
class EsstFileSink final : public Sink {
 public:
  EsstFileSink(const std::string& path, EsstMeta meta);
  /// Write to a caller-owned stream (not closed by the sink). The fault
  /// harness uses this to put a failing stream under the writer.
  EsstFileSink(std::ostream& os, EsstMeta meta);
  ~EsstFileSink() override;

  void on_record(const trace::Record& r) override;
  /// Bulk path: one failure latch around the whole span instead of one
  /// try/catch per record (the drain daemon hands over 4096-record spans).
  void on_records(const trace::Record* r, std::size_t n) override;
  void on_finish(SimTime duration) override;
  void on_drops(std::uint64_t dropped) override;

  std::uint64_t records_written() const;

  /// True once a write failed; no further bytes are attempted.
  bool failed() const;
  /// The latched failure message (empty while healthy).
  const std::string& error() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Structured account of how much of a capture survived — populated by
/// analysis::verify_esst so degraded reads are reported, never silent.
struct SalvageReport {
  /// Trailer index present and CRC-clean (false => chunk list was rebuilt
  /// by a forward scan).
  bool index_ok = false;
  std::size_t chunks_kept = 0;
  std::size_t chunks_lost = 0;  // CRC-failed or undecodable chunk bodies
  std::uint64_t records_kept = 0;
  /// Records in lost chunks. Exact when the index survived (its per-chunk
  /// counts are authoritative); otherwise a lower bound reconstructed from
  /// untrusted footers and `records_lost_exact` is false.
  std::uint64_t records_lost = 0;
  bool records_lost_exact = true;
  /// File offset of the first damaged byte region (the first lost chunk,
  /// or where a salvage scan stopped early). Empty when nothing was
  /// damaged — an optional, not a 0 sentinel, so damage at offset 0 is
  /// representable and unambiguous.
  std::optional<std::uint64_t> first_bad_offset;
  /// Records that overflowed the kernel ring at capture time (from the
  /// trailer): loss upstream of the file itself.
  std::uint64_t capture_dropped = 0;

  bool operator==(const SalvageReport&) const = default;

  /// Full-fidelity capture: indexed, nothing lost at capture or since.
  bool clean() const {
    return index_ok && chunks_lost == 0 && records_lost == 0 &&
           capture_dropped == 0;
  }
};

// Whole-file conveniences. write_esst_file fills meta.experiment/node_id
// from the TraceSet when left at defaults. The read side is EsstView
// (telemetry/esst_view.hpp).
void write_esst(const trace::TraceSet& ts, std::ostream& os,
                EsstMeta meta = {});
void write_esst_file(const trace::TraceSet& ts, const std::string& path,
                     EsstMeta meta = {});

/// True when the stream starts with the ESST magic (position restored).
bool is_esst(std::istream& is);

}  // namespace ess::telemetry
