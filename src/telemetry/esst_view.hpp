// EsstView: the one ESST reader.
//
// One construction maps the file (util::MmapFile), validates the header,
// and loads + CRC-checks the trailing chunk index — once. After that every
// chunk is a byte span into the mapping: no stream, no seek, no shared
// file position, no per-read copy of the payload. decode_chunk() is const
// and touches no mutable state, so any number of threads can decode
// disjoint (or even the same) chunks concurrently from one shared view —
// the property the parallel scan engine in analysis/parallel.cpp is built
// on.
//
// Damaged captures read through the same view. When the trailer or index
// fails validation (the writer died mid-run, the tail was truncated), the
// constructor rebuilds the chunk list by a forward scan over the mapped
// bytes, keeping every chunk whose CRC passes — a crash loses at most the
// unflushed chunk, never the file. salvaged() reports it, and the scan's
// losses land in scan_losses(), which analysis::verify_esst folds into its
// SalvageReport so degraded reads are accounted for, never silent. From
// there on a salvaged file is just a chunk list: every consumer (scan,
// verify, merge, esstrace) takes the same path for it as for an intact
// one. In-memory captures (tests, re-encoding benches) construct the view
// over util::MmapFile::from_bytes — the same read path, heap-backed.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "telemetry/esst.hpp"
#include "util/mmap_file.hpp"

namespace ess::telemetry {

class EsstView {
 public:
  /// Map `path` and parse header + trailer index (or salvage-scan). Throws
  /// std::runtime_error "cannot open <path>" when the file cannot be
  /// opened, and the header errors below.
  explicit EsstView(const std::string& path);
  /// Read a capture held in `file` (mapped or heap-buffered). Throws
  /// std::runtime_error only when the header itself is unusable (too
  /// short, bad magic, unsupported version, header CRC mismatch); damaged
  /// chunks and a damaged/missing index are recovered around, not fatal.
  explicit EsstView(util::MmapFile file);

  EsstView(EsstView&&) = default;
  EsstView& operator=(EsstView&&) = default;
  EsstView(const EsstView&) = delete;
  EsstView& operator=(const EsstView&) = delete;

  const EsstMeta& meta() const { return meta_; }

  /// True when the trailing index was missing or bad and the chunk list was
  /// rebuilt by a forward scan.
  bool salvaged() const { return !scan_.index_ok; }
  /// Chunks the salvage scan dropped because their CRC failed.
  std::size_t corrupt_chunks() const { return corrupt_chunks_; }
  /// What opening the file already established: index state, the
  /// trailer's capture drop count, and the damage the salvage scan
  /// discarded (lost chunks, their records from clamped untrusted footers,
  /// the first damaged offset). No chunk has been decoded yet, so the
  /// kept/lost chunk tallies cover only what the scan dropped.
  const SalvageReport& scan_losses() const { return scan_; }

  const std::vector<ChunkInfo>& chunks() const { return chunks_; }
  /// The trailer's capture duration; for salvaged files the largest kept
  /// chunk's last timestamp.
  SimTime duration() const { return duration_; }
  /// The trailer's record-count claim (0 when the index did not survive).
  /// total_records() sums the per-chunk index counts instead; a shortfall
  /// between the two means the index itself lost entries.
  std::uint64_t trailer_records() const { return trailer_records_; }
  /// Sum of the per-chunk index counts.
  std::uint64_t total_records() const;
  /// Capture-time ring overflow recorded in the trailer (0 for v1 trailers
  /// and salvaged files, where the count did not survive).
  std::uint64_t capture_dropped() const { return scan_.capture_dropped; }

  std::uint64_t file_size() const { return map_.size(); }
  /// True when backed by a real mapping (false: heap buffer).
  bool mapped() const { return map_.mapped(); }

  /// A chunk's payload bytes as a span into the mapping. Validates the
  /// framing (magic, in-bounds payload); throws "esst: chunk unreadable"
  /// when the bytes at the indexed offset are not a complete chunk.
  struct ChunkSpan {
    const std::uint8_t* payload = nullptr;
    std::size_t payload_len = 0;
    const std::uint8_t* footer = nullptr;  // kChunkFooterBytes long
  };
  ChunkSpan chunk_span(std::size_t idx) const;

  /// On-disk cost of chunk `idx` (framing + payload), the weight the
  /// byte-balanced sharding uses. Returns the minimum frame size when the
  /// framing at that offset is damaged — a chunk that cannot be decoded
  /// costs a shard almost nothing.
  std::uint64_t chunk_bytes(std::size_t idx) const;

  /// Decode chunk `idx` into `out` (cleared first, capacity reused).
  /// CRC-checks payload + footer, then decodes the footer's record count.
  /// Throws "esst: chunk unreadable" / "esst: chunk CRC mismatch" / decode
  /// errors. Const and thread-safe: all scratch is caller-owned.
  void decode_chunk(std::size_t idx, std::vector<trace::Record>& out) const;

  /// Check chunk `idx` as decode_chunk would, without decoding it: the
  /// same CRC check, then a walk over the payload's varint framing that
  /// accepts exactly the payloads decode_chunk decodes (codec's
  /// payload_frames). Returns the footer's record count — decode_chunk's
  /// out.size() — and throws where decode_chunk throws. Const and
  /// thread-safe.
  std::uint32_t check_chunk(std::size_t idx) const;

  struct Filter {
    SimTime ts_min = 0;
    SimTime ts_max = std::numeric_limits<SimTime>::max();
    std::uint64_t sector_min = 0;
    std::uint64_t sector_max = std::numeric_limits<std::uint64_t>::max();
    int rw = -1;  // -1 = both, 0 = reads only, 1 = writes only

    bool chunk_may_match(const ChunkInfo& c) const;
    bool record_matches(const trace::Record& r) const;
  };

  /// Decode only chunks whose index ranges can intersect the filter; the
  /// point of the format. Damaged chunks are skipped. `chunks_skipped`
  /// (optional) reports how many chunks the index pruned without decoding.
  trace::TraceSet read_filtered(const Filter& f,
                                std::size_t* chunks_skipped = nullptr) const;
  /// Every record of every decodable chunk, with the capture's duration.
  trace::TraceSet read_all() const { return read_filtered(Filter{}); }

  /// Kernel readahead hint, forwarded to the mapping (a no-op on a heap
  /// buffer): MADV_WILLNEED over the byte range of chunks [first, last).
  void advise_chunks(std::size_t first, std::size_t last) const;

 private:
  enum class Frame { kOk, kNotAChunk, kTorn };
  /// The one chunk-framing check: whether a complete chunk frame (header,
  /// in-bounds payload, footer) starts at `offset`. kTorn means the chunk
  /// magic is there but the frame runs past the end of the file.
  Frame frame_at(std::uint64_t offset, ChunkSpan& span) const;
  /// chunk_span(idx) once its CRC matches; `records` gets the footer's
  /// record count. Throws like decode_chunk.
  ChunkSpan crc_checked_span(std::size_t idx, std::uint32_t& records) const;
  bool load_index();
  void salvage_scan();

  util::MmapFile map_;
  EsstMeta meta_;
  std::vector<ChunkInfo> chunks_;
  SimTime duration_ = 0;
  std::uint64_t trailer_records_ = 0;
  std::size_t corrupt_chunks_ = 0;
  SalvageReport scan_;
};

/// Whole-file convenience: every decodable record of the capture at `path`.
trace::TraceSet read_esst_file(const std::string& path);

}  // namespace ess::telemetry
