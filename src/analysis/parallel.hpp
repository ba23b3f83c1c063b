// Chunk-parallel ESST scan engine, and the k-way multi-node trace merge.
//
// ESST's chunks decode independently (each one restarts its delta chain),
// which makes a capture embarrassingly parallel to characterize: shard the
// chunk index into contiguous runs, decode and consume each shard on its
// own worker with its own StreamSummary, then fold the shard summaries
// left-to-right with the consumers' merge() methods. Shard-order merging
// (per-shard slots filled by exec::parallel_for) plus contiguous shards
// keep the result *identical* to the serial chunk loop — counting
// consumers merge exactly, the sliding-rate window's "later segment"
// precondition is exactly what contiguous shards guarantee, and the
// top-K sketch union is exact while the distinct-sector population fits
// its capacity (it does, for every capture this study produces; when it
// would not, the sketch reports its error bounds instead of silently
// diverging).
//
// The read substrate is one telemetry::EsstView shared by every shard: the
// capture is memory-mapped and its header/index validated exactly once,
// and each worker decodes its chunks straight out of the mapping into its
// own reused scratch — no per-shard file open, no header/index re-parse,
// no payload copy (the fixed costs that used to make --jobs > 1 slower
// than the serial loop). Shards are sized by payload bytes, not chunk
// count, so dense chunks cannot straggle the scan. Captures whose index
// did not survive are no different here: the view's salvage scan has
// already rebuilt their chunk list, and they shard like any other file.
//
// The same worker-count convention runs through everything here and the
// esstrace CLI (exec::resolve_workers): jobs == 0 means "pick for me"
// (ESS_JOBS or the affinity mask), jobs == 1 is one shard on the calling
// thread — the serial reference path through the same shard loop — and
// outputs never depend on the value.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "telemetry/consumers.hpp"
#include "telemetry/esst.hpp"
#include "telemetry/esst_view.hpp"

namespace ess::analysis {

/// Contiguous chunk shard ranges balanced by per-chunk *byte* cost (one
/// weight per chunk, e.g. EsstView::chunk_bytes): shard boundaries land on
/// equal cumulative-byte marks, so a run of dense chunks cannot straggle
/// the scan the way equal-count sharding lets it. The returned ranges
/// exactly cover [0, chunks) in order with no overlap; empty when there
/// are no chunks. One range when workers <= 1; otherwise the shard count
/// is capped so no shard carries less decode work than it costs to fold
/// its summary back in (tiny captures collapse to one shard, i.e. the
/// serial path). `min_shard_bytes` sets that per-shard byte floor; 0
/// means the built-in default, overridable via ESS_SHARD_MIN_BYTES
/// (decimal digits only; anything else keeps the default). Exposed for
/// tests.
std::vector<std::pair<std::size_t, std::size_t>> shard_ranges_weighted(
    const std::vector<std::uint64_t>& chunk_bytes, std::size_t workers,
    std::uint64_t min_shard_bytes = 0);

/// A characterized capture: what `esstrace stats` prints and `diff`
/// compares, plus the loss accounting the shards tracked alongside.
struct ScanResult {
  telemetry::StreamSummary summary;  // merged + finished; result() ready
  std::string experiment;            // header name ("" when unnamed)
  /// Records in chunks that failed CRC/decode during this scan or that the
  /// view's salvage scan discarded (already folded into the summary's drop
  /// tally together with capture drops).
  std::uint64_t lost_records = 0;
  /// Index was missing/bad (chunk list rebuilt by scan) or chunks were
  /// discarded — the capture is not a complete record of the run.
  bool salvaged = false;
  std::uint64_t capture_dropped = 0;  // trailer's ring-overflow tally
};

/// Characterize an ESST capture with `jobs` workers. Byte-identical output
/// to the serial chunk loop at any worker count (the goldens prove it),
/// salvaged files included.
ScanResult scan_esst(const std::string& path, std::size_t jobs = 0,
                     const telemetry::StreamSummary::Options& opts = {});

/// The integrity pass: check every chunk of the view across `jobs`
/// workers (EsstView::check_chunk: its CRC, then its varint framing, which
/// succeeds exactly where decoding would) and account for what survived,
/// folding in the damage the view's salvage scan already discarded. Never
/// throws for damaged chunks — damage becomes report fields — and the
/// report is identical at any worker count. Loss figures are exact while
/// the index survived; for a salvaged file they are a lower bound
/// (`records_lost_exact` false).
telemetry::SalvageReport verify_esst(const telemetry::EsstView& view,
                                     std::size_t jobs = 0);
telemetry::SalvageReport verify_esst(const std::string& path,
                                     std::size_t jobs = 0);

/// What `esstrace merge` reports about a merge it just wrote.
struct MergeResult {
  std::uint64_t records_written = 0;
  /// Aggregated loss carried into the output trailer: the sum of every
  /// input's capture-time drops, the records its salvage scan discarded,
  /// and records in chunks that failed to decode during the merge.
  std::uint64_t dropped_records = 0;
  std::size_t inputs = 0;
  SimTime duration = 0;  // max over the inputs
  /// Parts the merge ran as: 1 is the serial path, or the fallback when
  /// the inputs were not ordered as the cut search needs.
  std::size_t parts = 1;
};

/// K-way streaming merge of per-node ESST captures into one multi-node
/// (format v2) file ordered by (timestamp, node id, input position) — the
/// node id breaks timestamp ties, so the output is one deterministic byte
/// stream regardless of input order permutations of the same files or of
/// `jobs`. Every record carries its origin: records from a v1 input are
/// stamped with that input's header node id, v2 inputs keep their
/// per-record ids.
///
/// The core is a loser tree over the k cursor fronts, keyed by the tuple
/// packed into one 128-bit integer: one replay per emitted record. When
/// the same cursor wins twice running, the records of its buffer that sort
/// before every other cursor's front (the tree's runner-up key) are
/// emitted as one batch — galloped in O(log run) comparisons when the
/// chunk is sorted by (ts, node) — instead of one tournament each. The
/// merge refuses 2^32 - 1 inputs or more (the key's input field).
///
/// With jobs > 1 the output is cut into up to `jobs` parts at ranks that
/// are multiples of the output's records_per_chunk, found by k-way rank
/// selection over the chunk index and a few decoded chunks per input.
/// A chunk's bytes depend only on its records, so each part — its own
/// loser tree, decoding and encoding inline — frames whole chunks the
/// serial writer would have written, and the parts are written in order.
/// The merge runs exactly `jobs` threads: the caller and one pool of
/// jobs - 1, built once per merge, run the cut searches and the parts.
/// Memory: each part holds one decoded chunk per input; the earliest
/// unwritten part writes as it goes, and a later part holds its encoded
/// chunks until every earlier part is written (at worst (jobs - 1) / jobs
/// of the output). The cuts hold only for inputs non-decreasing by
/// (ts, node) whose chunks decode as indexed; when a part finds
/// otherwise, the merge reruns as one part from the start of the file, so
/// the bytes never depend on `jobs`.
/// jobs == 1 is that one part, the plain serial path.
MergeResult merge_esst(const std::vector<std::string>& inputs,
                       const std::string& out_path, std::size_t jobs = 0);

}  // namespace ess::analysis
