// esstrace: command implementations.
//
// The CLI entry point (main.cpp) only parses argv; everything below is
// plain library code over telemetry/ + trace/, so tests drive the commands
// directly with temp files and an ostringstream.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

#include "telemetry/diff.hpp"
#include "telemetry/esst.hpp"
#include "telemetry/esst_view.hpp"
#include "trace/trace_set.hpp"

namespace ess::esstrace {

enum class TraceFormat { kEsst, kCsv };

/// Identify a file's format by its magic ("ESST0001"), not its name;
/// anything else is treated as CSV. Throws std::runtime_error on the magic
/// of the retired flat "ESSTRC01" format, which the tolerant CSV reader
/// would otherwise turn into an empty trace.
TraceFormat sniff_format(const std::string& path);

/// Pick an output format from the extension: .esst, anything else CSV.
TraceFormat format_for_extension(const std::string& path);

/// Load a trace in any supported format (sniffed).
trace::TraceSet load_any(const std::string& path);

/// Write a trace in the format chosen by `path`'s extension.
void save_as(const trace::TraceSet& ts, const std::string& path);

/// `info FILE` — header metadata, chunk index, salvage state. ESST only.
int cmd_info(const std::string& path, std::ostream& out, std::ostream& err);

/// `cat FILE` — any format to CSV on `out`.
int cmd_cat(const std::string& path, std::ostream& out, std::ostream& err);

/// `convert IN OUT` — read by magic, write by extension.
int cmd_convert(const std::string& in, const std::string& out_path,
                std::ostream& out, std::ostream& err);

/// `filter IN OUT` — keep records matching `f`. For ESST input the chunk
/// index prunes whole chunks without decoding them.
int cmd_filter(const std::string& in, const std::string& out_path,
               const telemetry::EsstView::Filter& f, std::ostream& out,
               std::ostream& err);

/// `stats FILE [--jobs N]` — run the streaming consumers over the trace
/// and print the characterization. ESST input goes through the
/// chunk-parallel scan engine (analysis/parallel.hpp): decoded chunk by
/// chunk across `jobs` workers, never fully resident, output identical at
/// any worker count. jobs: 0 = ESS_JOBS or the affinity mask.
int cmd_stats(const std::string& path, std::ostream& out, std::ostream& err,
              std::size_t jobs = 0);

/// `diff A B [--jobs N]` — compare two traces' characterizations under
/// tolerances (both sides scanned with `jobs` workers). Returns 0 when
/// within tolerance, 1 when not. Lossy inputs (salvaged files,
/// capture-time drops) are annotated in the output.
int cmd_diff(const std::string& a, const std::string& b,
             const telemetry::DiffTolerance& tol, std::ostream& out,
             std::ostream& err, std::size_t jobs = 0);

/// `verify FILE [--jobs N]` — integrity pass over an ESST capture, chunk
/// decodes fanned across `jobs` workers (identical report at any count;
/// salvaged files verify serially). Exit codes are the contract CI
/// scripts key on:
///   0  clean: indexed, every chunk decodes, no capture-time drops
///   1  salvaged/lossy: readable, but records were lost at capture time or
///      chunks were lost to damage — the SalvageReport says which and how
///      many
///   2  unreadable: not an ESST file, or the header itself is unusable
int cmd_verify(const std::string& path, std::ostream& out, std::ostream& err,
               std::size_t jobs = 0);

/// Expand merge inputs: a directory becomes every `*.esst` inside it
/// (skipping already-merged multi-node files, so a previous merge result
/// alongside the per-node captures is not double-counted), a pattern
/// containing `*` or `?` matches names in its parent directory, both in
/// sorted name order (so "DIR" or "DIR/node*.esst" stands in for a
/// thousand per-node paths); plain paths pass through. Throws when a
/// directory or pattern matches nothing.
std::vector<std::string> expand_merge_inputs(
    const std::vector<std::string>& inputs);

/// `merge IN... OUT [--jobs N]` — k-way streaming merge of per-node ESST
/// captures into one multi-node (format v2) file, ordered by timestamp
/// with node id as the tie-break. Each IN may be a file, a directory
/// (every *.esst inside, name-sorted), or a `*`/`?` glob. Each merged
/// record carries its origin node; the output trailer aggregates every
/// input's drop count. The output bytes are a pure function of the input
/// files — independent of --jobs (workers only prefetch chunk decodes).
/// Returns 0 on success, 2 on unreadable inputs.
int cmd_merge(const std::vector<std::string>& inputs,
              const std::string& out_path, std::size_t jobs,
              std::ostream& out, std::ostream& err);

/// `capture-pdes DIR [--nodes N] [--shards S] [--jobs J]` — run the
/// combined parallel workload (the three SPMD applications spanning every
/// node, world = 3N ranks) on the sharded PDES machine at the reduced
/// study scale, write one ESST capture per node
/// (`DIR/pdes_node<N>.esst`) and their k-way merge (`DIR/pdes.esst`).
/// The merged bytes are identical at any --shards and --jobs value —
/// the byte-for-byte determinism gate CI's sharded-vs-serial cmp keys
/// on. shards 0 = one per worker; jobs 0 = ESS_JOBS or the hardware
/// thread count.
int cmd_capture_pdes(const std::string& dir, int nodes, std::size_t shards,
                     std::size_t jobs, std::ostream& out, std::ostream& err);

/// `capture EXPERIMENT OUT.esst` — run one experiment of the reduced-scale
/// study (core::fast_study_config) with an ESST drain capture; the producer
/// of the golden files the CI trace-diff gate compares against.
/// EXPERIMENT: baseline | ppm | wavelet | nbody | combined.
int cmd_capture(const std::string& experiment, const std::string& out_path,
                std::ostream& out, std::ostream& err);

/// `capture-all DIR` — regenerate every canonical golden capture into
/// `DIR` in one pass, fanned out over `jobs` executor workers (0 =
/// ESS_JOBS or the affinity mask): the five single-node
/// experiments (baseline, ppm, wavelet, nbody, combined) as
/// `DIR/<experiment>.esst`, plus a 2-node reduced-scale cluster baseline
/// as `DIR/cluster_node<N>.esst` per node and their `esstrace merge`
/// result as `DIR/cluster.esst`. Captures are bit-identical to serial
/// runs of the same experiments. Returns 0 when every capture wrote
/// cleanly.
int cmd_capture_all(const std::string& dir, std::size_t jobs,
                    std::ostream& out, std::ostream& err);

/// Shared by stats/diff: stream any-format input through a StreamSummary
/// (ESST across `jobs` workers — 0 = ESS_JOBS or the affinity mask;
/// the result never depends on the count). Damaged ESST chunks are
/// skipped (their records counted as dropped), and capture-time drops
/// from the trailer flow into the result's lossy annotation — a damaged
/// file yields a labelled result, not an exception.
telemetry::StreamSummary::Result summarize_file(const std::string& path,
                                                std::size_t jobs = 0);

}  // namespace ess::esstrace
