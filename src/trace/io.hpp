// CSV serialization of trace sets (the "trace files" of the paper's
// methodology). The binary trace format is ESST (telemetry/esst.hpp).
#pragma once

#include <iosfwd>
#include <string>

#include "trace/trace_set.hpp"

namespace ess::trace {

/// CSV with header: timestamp_us,sector,size_bytes,is_write,outstanding
void write_csv(const TraceSet& ts, std::ostream& os);
void write_csv_file(const TraceSet& ts, const std::string& path);

/// Streaming CSV: header and record spans separately, so a chunked reader
/// can emit a capture without materializing the whole TraceSet (esstrace
/// cat over multi-GB ESST files decodes one chunk at a time).
void write_csv_header(std::ostream& os);
void write_csv_records(const Record* r, std::size_t n, std::ostream& os);

/// CSV ingestion (the reverse direction: traces exported by this tool, or
/// produced by hand / another harness). Tolerant by design — an empty file
/// is an empty trace, and blank lines, '#' comments, a header row, and
/// malformed rows are skipped (and counted), never fatal. Rows with benign
/// formatting damage (a trailing delimiter, whitespace padding inside
/// fields) are repaired and kept; the stats distinguish the two so a caller
/// can tell "this file was scruffy but complete" from "rows were lost".
struct CsvReadStats {
  std::uint64_t rows = 0;      // records kept (includes repaired ones)
  std::uint64_t skipped = 0;   // malformed rows dropped (data lost)
  std::uint64_t repaired = 0;  // rows kept only after cleanup (no data lost)
  bool had_header = false;
};
TraceSet read_csv(std::istream& is, CsvReadStats* stats = nullptr);
TraceSet read_csv_file(const std::string& path, CsvReadStats* stats = nullptr);

}  // namespace ess::trace
