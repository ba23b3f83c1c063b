#include "analysis/report.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>

#include "analysis/patterns.hpp"
#include "analysis/phases.hpp"
#include "util/ascii_plot.hpp"
#include "util/csv.hpp"

namespace ess::analysis {
namespace {

std::string fmt(double v, const char* spec = "%.1f") {
  char buf[48];
  std::snprintf(buf, sizeof buf, spec, v);
  return buf;
}

}  // namespace

std::string render_sector_figure(const trace::TraceSet& ts,
                                 const std::string& title) {
  AsciiScatter plot(title, "time (s)", "disk sector");
  plot.set_x_range(0, to_seconds(ts.duration()));
  plot.set_y_range(0, 1'018'080);
  for (const auto& p : sector_time_series(ts)) {
    plot.add(p.t_sec, p.sector, p.is_write ? 'w' : 'r');
  }
  return plot.render();
}

std::string render_size_figure(const trace::TraceSet& ts,
                               const std::string& title) {
  AsciiScatter plot(title, "time (s)", "request size (KB)");
  plot.set_x_range(0, to_seconds(ts.duration()));
  double max_kb = 4.0;
  for (const auto& p : size_time_series(ts)) max_kb = std::max(max_kb, p.size_kb);
  plot.set_y_range(0, max_kb);
  for (const auto& p : size_time_series(ts)) {
    plot.add(p.t_sec, p.size_kb, p.is_write ? 'w' : 'r');
  }
  return plot.render();
}

std::string render_spatial_figure(const trace::TraceSet& ts,
                                  const std::string& title) {
  AsciiBarChart chart(title + "  (% of I/O requests per sector band)");
  const auto c = characterize(ts);
  const auto width = c.spatial().band_sectors();
  for (const auto& band : c.spatial().bands()) {
    const auto lo = band.band_start_sector / 1000;
    const auto hi = (band.band_start_sector + width) / 1000;
    chart.add(std::to_string(lo) + "K-" + std::to_string(hi) + "K",
              band.pct);
  }
  return chart.render();
}

std::string render_temporal_figure(const trace::TraceSet& ts,
                                   const std::string& title) {
  AsciiScatter plot(title, "disk sector", "accesses per second");
  plot.set_x_range(0, 1'018'080);
  for (const auto& f : temporal_locality(characterize(ts))) {
    plot.add(static_cast<double>(f.sector), f.per_sec);
  }
  return plot.render();
}

std::string render_table1(const std::vector<TraceSummary>& rows) {
  std::ostringstream os;
  os << "Table 1. I/O Requests\n";
  os << "  application    reads   writes   req/s    total\n";
  os << "  -----------    -----   ------   -----    -----\n";
  for (const auto& s : rows) {
    char line[160];
    std::snprintf(line, sizeof line, "  %-12s  %4.0f%%    %4.0f%%   %6.2f %8llu\n",
                  s.experiment.c_str(), s.mix.read_pct, s.mix.write_pct,
                  s.mix.requests_per_sec,
                  static_cast<unsigned long long>(s.mix.total));
    os << line;
  }
  return os.str();
}

std::string render_size_classes(const TraceSummary& s) {
  std::ostringstream os;
  os << "Request size classes (" << s.experiment << "):\n";
  os << "  1 KB (block I/O):      " << fmt(s.pct_1k) << "%\n";
  os << "  2 KB (coalesced):      " << fmt(s.pct_2k) << "%\n";
  os << "  4 KB (paging):         " << fmt(s.pct_4k) << "%\n";
  os << "  >= 8 KB (streaming):   " << fmt(s.pct_ge_8k) << "%\n";
  os << "  >= 16 KB (cache-size): " << fmt(s.pct_ge_16k) << "%\n";
  os << "  max request:           " << s.max_request_bytes / 1024 << " KB\n";
  return os.str();
}

std::string markdown_report(const trace::TraceSet& ts) {
  const auto s = summarize(ts);
  const auto c = characterize(ts);
  std::ostringstream os;
  os << "# I/O characterization: " << ts.experiment() << "\n\n";
  os << "Node " << ts.node_id() << ", " << ts.size() << " requests over "
     << fmt(s.duration_sec, "%.0f") << " s.\n\n";

  os << "## Request mix\n\n";
  os << "| metric | value |\n|---|---|\n";
  os << "| reads | " << s.mix.reads << " (" << fmt(s.mix.read_pct) << "%) |\n";
  os << "| writes | " << s.mix.writes << " (" << fmt(s.mix.write_pct)
     << "%) |\n";
  os << "| requests/s | " << fmt(s.mix.requests_per_sec, "%.2f") << " |\n";
  os << "| max request | " << s.max_request_bytes / 1024 << " KB |\n\n";

  os << "## Size classes\n\n";
  os << "| class | share |\n|---|---|\n";
  os << "| 1 KB (block I/O) | " << fmt(s.pct_1k) << "% |\n";
  os << "| 2 KB (coalesced) | " << fmt(s.pct_2k) << "% |\n";
  os << "| 4 KB (paging) | " << fmt(s.pct_4k) << "% |\n";
  os << "| >= 8 KB (streaming) | " << fmt(s.pct_ge_8k) << "% |\n\n";

  os << "## Locality\n\n";
  for (const auto& b : c.spatial().bands()) {
    os << "* band " << b.band_start_sector / 1000 << "K-"
       << (b.band_start_sector + 100'000) / 1000 << "K: " << fmt(b.pct)
       << "%\n";
  }
  os << "* 90% of requests on "
     << fmt(100.0 * disk_fraction_for_coverage(c, 0.9), "%.2f")
     << "% of the disk\n\n";

  os << "## Hot spots\n\n";
  for (const auto& h : c.hot().top(5)) {
    os << "* sector " << h.sector << ": " << h.count << " accesses ("
       << fmt(h.per_sec, "%.3f") << "/s)\n";
  }
  os << "\n## Phases\n\n```\n" << render_phases(detect_phases(ts))
     << "```\n\n";

  const auto ia = inter_arrival(ts);
  os << "## Arrival pattern\n\n";
  os << "* mean inter-arrival " << fmt(ia.gaps_sec.mean(), "%.3f")
     << " s, CV " << fmt(ia.cv, "%.2f") << "\n";
  os << "* burstiness: " << fmt(100.0 * burstiness(ts, sec(10)), "%.0f")
     << "% of requests in the busiest 10% of 10 s windows\n";
  os << "* device-level sequentiality: "
     << fmt(100.0 * sequential_fraction(ts)) << "%\n\n";

  os << "## Region decomposition\n\n```\n"
     << render_region_table(region_breakdown(ts)) << "```\n";
  return os.str();
}

void write_markdown_report(const trace::TraceSet& ts,
                           const std::string& path) {
  std::ofstream f(path);
  if (!f) throw std::runtime_error("report: cannot open " + path);
  f << markdown_report(ts);
}

void write_size_series_csv(const trace::TraceSet& ts,
                           const std::string& path) {
  CsvWriter csv(path);
  csv.header({"t_sec", "size_kb", "is_write"});
  for (const auto& p : size_time_series(ts)) {
    csv.row(p.t_sec, p.size_kb, p.is_write ? 1 : 0);
  }
}

void write_sector_series_csv(const trace::TraceSet& ts,
                             const std::string& path) {
  CsvWriter csv(path);
  csv.header({"t_sec", "sector", "is_write"});
  for (const auto& p : sector_time_series(ts)) {
    csv.row(p.t_sec, p.sector, p.is_write ? 1 : 0);
  }
}

void write_spatial_csv(const trace::TraceSet& ts, const std::string& path) {
  CsvWriter csv(path);
  csv.header({"band_start_sector", "requests", "pct"});
  for (const auto& b : characterize(ts).spatial().bands()) {
    csv.row(b.band_start_sector, b.requests, b.pct);
  }
}

void write_temporal_csv(const trace::TraceSet& ts, const std::string& path) {
  CsvWriter csv(path);
  csv.header({"sector", "accesses", "per_sec"});
  for (const auto& f : temporal_locality(characterize(ts))) {
    csv.row(f.sector, f.accesses, f.per_sec);
  }
}

void write_table1_csv(const std::vector<TraceSummary>& rows,
                      const std::string& path) {
  CsvWriter csv(path);
  csv.header({"experiment", "read_pct", "write_pct", "requests_per_sec",
              "total_requests", "duration_sec"});
  for (const auto& s : rows) {
    csv.row(s.experiment, s.mix.read_pct, s.mix.write_pct,
            s.mix.requests_per_sec, s.mix.total, s.duration_sec);
  }
}

}  // namespace ess::analysis
