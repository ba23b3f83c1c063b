// The operation stream a process presents to the simulated kernel.
//
// Applications run their real numerics once (phase A) while recording an
// OpTrace; the kernel then executes OpTraces for any number of concurrent
// processes (phase B), which is what makes the combined experiment an
// honest multiprogrammed interleaving.
#pragma once

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "util/sim_time.hpp"

namespace ess::workload {

/// Index into the OpTrace's file table.
using FileRef = std::uint32_t;

inline constexpr std::uint64_t kAppend = ~std::uint64_t{0};

struct ComputeOp {
  SimTime duration = 0;  // modelled CPU time on the 486-DX4

  bool operator==(const ComputeOp&) const = default;
};

struct ReadOp {
  FileRef file = 0;
  std::uint64_t offset = 0;
  std::uint64_t len = 0;

  bool operator==(const ReadOp&) const = default;
};

struct WriteOp {
  FileRef file = 0;
  std::uint64_t offset = 0;  // kAppend appends at EOF
  std::uint64_t len = 0;

  bool operator==(const WriteOp&) const = default;
};

struct PageAccess {
  std::uint64_t vpage = 0;
  bool write = false;

  bool operator==(const PageAccess&) const = default;
};

struct TouchOp {
  std::vector<PageAccess> pages;

  bool operator==(const TouchOp&) const = default;
};

/// Create a scratch file (metadata-only until written through WriteOp on
/// its FileRef is not supported — scratch files are written via `bytes`
/// at creation and deleted by UnlinkOp). Models temporary files.
struct ScratchCreateOp {
  std::string path;
  std::uint64_t bytes = 0;  // written immediately (write-behind)

  bool operator==(const ScratchCreateOp&) const = default;
};

struct UnlinkOp {
  std::string path;

  bool operator==(const UnlinkOp&) const = default;
};

// ---- message passing (PVM-style), executed via the machine's fabric ----

/// Asynchronous send to another rank (pvm_send): the sender pays the pack/
/// copy cost and continues; delivery time is modelled by the fabric.
struct SendOp {
  int dst_rank = 0;
  std::uint64_t bytes = 0;
  int tag = 0;

  bool operator==(const SendOp&) const = default;
};

/// Blocking receive (pvm_recv): src_rank -1 matches any sender.
struct RecvOp {
  int src_rank = -1;
  int tag = 0;

  bool operator==(const RecvOp&) const = default;
};

/// Barrier over a group of ranks (pvm_barrier). participants 0 means the
/// whole world; `group` separates concurrent jobs' barriers.
struct BarrierOp {
  int group = 0;
  int participants = 0;

  bool operator==(const BarrierOp&) const = default;
};

using Op = std::variant<ComputeOp, ReadOp, WriteOp, TouchOp,
                        ScratchCreateOp, UnlinkOp, SendOp, RecvOp,
                        BarrierOp>;

/// A file the process uses. Inputs must be staged by the experiment before
/// the run; outputs are created at spawn.
struct FileDecl {
  std::string path;
  bool create = false;        // true: created empty at spawn (output file)
  std::uint64_t input_size = 0;  // for pre-staged inputs (bytes)
  std::uint64_t goal_block = 0;  // placement hint for staging

  bool operator==(const FileDecl&) const = default;
};

struct OpTrace {
  std::string app_name;
  std::uint64_t image_bytes = 0;  // program text+data (file-backed pages)
  std::uint64_t anon_bytes = 0;   // heap/stack ceiling (anonymous pages)
  /// Fraction of the image hot in the buffer cache at spawn (recently-used
  /// binaries); the cold tail demand-loads from disk during the run.
  double image_warm_fraction = 1.0;
  std::vector<FileDecl> files;
  std::vector<Op> ops;

  std::uint64_t image_pages() const { return (image_bytes + 4095) / 4096; }
  std::uint64_t anon_pages() const { return (anon_bytes + 4095) / 4096; }

  bool operator==(const OpTrace&) const = default;

  /// Total modelled CPU time in the trace.
  SimTime total_compute() const;
  /// Total explicit I/O bytes.
  std::uint64_t total_read_bytes() const;
  std::uint64_t total_write_bytes() const;
};

}  // namespace ess::workload
