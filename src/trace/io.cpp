#include "trace/io.hpp"

#include <fstream>
#include <ostream>
#include <stdexcept>
#include <vector>

namespace ess::trace {

void write_csv_header(std::ostream& os) {
  os << "timestamp_us,sector,size_bytes,is_write,outstanding\n";
}

void write_csv_records(const Record* r, std::size_t n, std::ostream& os) {
  for (std::size_t i = 0; i < n; ++i) {
    os << r[i].timestamp << ',' << r[i].sector << ',' << r[i].size_bytes
       << ',' << static_cast<int>(r[i].is_write) << ',' << r[i].outstanding
       << '\n';
  }
}

void write_csv(const TraceSet& ts, std::ostream& os) {
  write_csv_header(os);
  write_csv_records(ts.records().data(), ts.records().size(), os);
}

void write_csv_file(const TraceSet& ts, const std::string& path) {
  std::ofstream f(path);
  if (!f) throw std::runtime_error("trace: cannot open " + path);
  write_csv(ts, f);
}

namespace {

/// Parses an unsigned decimal field bounded by `max`; false on anything
/// else (empty, sign, garbage, overflow) — a malformed row, not a throw.
bool parse_field(const std::string& s, std::uint64_t max, std::uint64_t& out) {
  if (s.empty() || s.size() > 20) return false;
  std::uint64_t v = 0;
  for (const char c : s) {
    if (c < '0' || c > '9') return false;
    if (v > (std::uint64_t{0xFFFFFFFFFFFFFFFF} - (c - '0')) / 10) return false;
    v = v * 10 + static_cast<std::uint64_t>(c - '0');
  }
  if (v > max) return false;
  out = v;
  return true;
}

enum class RowParse { kOk, kRepaired, kBad };

RowParse parse_record(const std::string& line, Record& r) {
  std::vector<std::string> fields(1);
  for (const char c : line) {
    if (c == ',') {
      if (fields.size() >= 6) return RowParse::kBad;  // too many columns
      fields.emplace_back();
    } else {
      fields.back().push_back(c);
    }
  }
  bool repaired = false;
  // Whitespace padding around a value ("12, 34") is formatting damage, not
  // data damage: trim and remember that we did. Trimming runs first so a
  // trailing ", " reduces to a plain trailing delimiter below.
  for (auto& f : fields) {
    const auto b = f.find_first_not_of(" \t");
    const auto e = f.find_last_not_of(" \t");
    const std::string trimmed =
        b == std::string::npos ? std::string{} : f.substr(b, e - b + 1);
    if (trimmed.size() != f.size()) {
      f = trimmed;
      repaired = true;
    }
  }
  // A trailing delimiter ("...,1,") produces one extra empty field; dropping
  // it loses nothing, so the row is repairable rather than malformed.
  if (fields.size() == 6 && fields.back().empty()) {
    fields.pop_back();
    repaired = true;
  }
  if (fields.size() != 5) return RowParse::kBad;
  std::uint64_t ts = 0, sector = 0, size = 0, rw = 0, out = 0;
  if (!parse_field(fields[0], std::uint64_t{0xFFFFFFFFFFFFFFFF}, ts) ||
      !parse_field(fields[1], 0xFFFFFFFFu, sector) ||
      !parse_field(fields[2], 0xFFFFFFFFu, size) ||
      !parse_field(fields[3], 1, rw) ||
      !parse_field(fields[4], 0xFFFFu, out)) {
    return RowParse::kBad;  // out-of-range values are data damage: skip
  }
  r.timestamp = ts;
  r.sector = static_cast<std::uint32_t>(sector);
  r.size_bytes = static_cast<std::uint32_t>(size);
  r.is_write = static_cast<std::uint8_t>(rw);
  r.outstanding = static_cast<std::uint16_t>(out);
  return repaired ? RowParse::kRepaired : RowParse::kOk;
}

}  // namespace

TraceSet read_csv(std::istream& is, CsvReadStats* stats) {
  CsvReadStats local;
  CsvReadStats& st = stats != nullptr ? *stats : local;
  st = CsvReadStats{};
  TraceSet ts;
  std::string line;
  bool first_content = true;
  while (std::getline(is, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty() || line[0] == '#') continue;
    Record r;
    const RowParse p = parse_record(line, r);
    if (p != RowParse::kBad) {
      ts.add(r);
      ++st.rows;
      if (p == RowParse::kRepaired) ++st.repaired;
    } else if (first_content) {
      st.had_header = true;  // the column-name row
    } else {
      ++st.skipped;
    }
    first_content = false;
  }
  return ts;
}

TraceSet read_csv_file(const std::string& path, CsvReadStats* stats) {
  std::ifstream f(path);
  if (!f) throw std::runtime_error("trace: cannot open " + path);
  return read_csv(f, stats);
}

}  // namespace ess::trace
