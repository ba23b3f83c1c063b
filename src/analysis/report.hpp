// Rendering of the paper's figures and Table 1 from trace sets, as ASCII
// plots (printed by the bench binaries) and CSV (written next to them).
#pragma once

#include <string>
#include <vector>

#include "analysis/characterize.hpp"
#include "trace/trace_set.hpp"

namespace ess::analysis {

/// Figure 1 / Figure 6 style: I/O requests as sector vs. time.
std::string render_sector_figure(const trace::TraceSet& ts,
                                 const std::string& title);

/// Figure 2-5 style: request size (KB) vs. time.
std::string render_size_figure(const trace::TraceSet& ts,
                               const std::string& title);

/// Figure 7: spatial locality bar chart (percent per 100K-sector band).
std::string render_spatial_figure(const trace::TraceSet& ts,
                                  const std::string& title);

/// Figure 8: temporal locality scatter (accesses/sec vs. sector).
std::string render_temporal_figure(const trace::TraceSet& ts,
                                   const std::string& title);

/// Table 1: one row per experiment.
std::string render_table1(const std::vector<TraceSummary>& rows);

/// Request-size class breakdown table (the three classes of Section 5).
std::string render_size_classes(const TraceSummary& s);

/// A complete characterization as a Markdown document: Table-1 row, size
/// classes, locality, hot spots, phases, arrival patterns, and the region
/// decomposition — everything the study derives from one trace.
std::string markdown_report(const trace::TraceSet& ts);
void write_markdown_report(const trace::TraceSet& ts,
                           const std::string& path);

// CSV writers for offline plotting.
void write_size_series_csv(const trace::TraceSet& ts, const std::string& path);
void write_sector_series_csv(const trace::TraceSet& ts,
                             const std::string& path);
void write_spatial_csv(const trace::TraceSet& ts, const std::string& path);
void write_temporal_csv(const trace::TraceSet& ts, const std::string& path);
void write_table1_csv(const std::vector<TraceSummary>& rows,
                      const std::string& path);

}  // namespace ess::analysis
