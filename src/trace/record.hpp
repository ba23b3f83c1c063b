// The trace record captured by the instrumented device driver.
//
// Matches the paper exactly: "All read or write requests sent to the disk
// drive generated a trace entry consisting of a timestamp, the disk sector
// number requested, a flag indicating either a read or write request, and a
// count of the remaining I/O requests to be processed."
// We additionally record the request size (in sectors) since every figure in
// the evaluation plots request sizes; on the real system the size is
// recoverable from the driver request structure at the same probe point.
#pragma once

#include <cstdint>

#include "util/sim_time.hpp"

namespace ess::trace {

struct Record {
  SimTime timestamp = 0;        // microseconds since experiment start
  std::uint32_t sector = 0;     // first LBA of the request
  std::uint32_t size_bytes = 0; // request size (sector_count * 512)
  std::uint8_t is_write = 0;    // 0 = read, 1 = write
  std::uint16_t outstanding = 0;// remaining queued requests at capture time
  /// Originating node for multi-node (merged) record streams; 0 on a
  /// single-node capture, where the file-level node id (TraceSet /
  /// EsstMeta) identifies the disk. Carried per record only by the
  /// multi-node ESST format; CSV drops it.
  std::int32_t node = 0;

  friend bool operator==(const Record&, const Record&) = default;
};

}  // namespace ess::trace
