// Incremental characterization consumers.
//
// Each consumer is a Sink holding O(state) memory, never the trace itself,
// so the same code characterizes a finished TraceSet (analysis::characterize
// folds one through a StreamSummary), an ESST file chunk by chunk, or a run
// still in flight. The size histogram, R/W mix and spatial bands are exact,
// and so is the hot-sector ranking while the distinct sectors fit the top-K
// capacity; beyond it the sketch degrades gracefully, with bounded,
// reported error.
//
// Every consumer is also *mergeable*: merge(other) folds a second
// consumer's state in, equivalent to one pass over this consumer's records
// followed by the other's (tested as a property over random splits). The
// chunk-parallel scan engine (analysis/parallel.hpp) leans on this: one
// consumer per shard of contiguous chunks, merged left-to-right. Counting
// consumers merge exactly; the sliding-rate window assumes `other` saw the
// later segment of a time-ordered stream (what contiguous chunk shards
// guarantee); the top-K sketch merge stays exact until capacity is
// exceeded, then reports its overcount bound per entry.
//
// The counting state lives in flat open-addressing tables (util::FlatMap),
// which the hot path probes once per record; the ascending views —
// histogram(), bands(), nodes(), StreamSummary::result() — are built from
// them only when asked for. Every consumer folds a whole span per call
// (on_records), so a decoded chunk costs one virtual call per consumer
// bundle, not one per record and consumer.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "telemetry/sink.hpp"
#include "util/flat_map.hpp"
#include "util/stats.hpp"

namespace ess::telemetry {

/// Request-size histogram (exact; sizes take a handful of distinct values).
class SizeHistogramConsumer final : public Sink {
 public:
  void on_record(const trace::Record& r) override { add(r); }
  void on_records(const trace::Record* r, std::size_t n) override {
    for (std::size_t i = 0; i < n; ++i) add(r[i]);
  }

  /// Exact: counting state sums cell-wise.
  void merge(const SizeHistogramConsumer& other);

  /// The cells as a Histogram keyed by size in bytes.
  Histogram histogram() const;
  std::uint32_t max_request_bytes() const { return max_bytes_; }
  double fraction(std::uint32_t bytes) const;
  double fraction_at_least(std::uint32_t bytes) const;

 private:
  void add(const trace::Record& r) {
    ++cells_[r.size_bytes];
    ++total_;
    max_bytes_ = std::max(max_bytes_, r.size_bytes);
  }

  util::FlatMap<std::uint32_t, std::uint64_t> cells_;  // size -> count
  std::uint64_t total_ = 0;
  std::uint32_t max_bytes_ = 0;
};

/// Read/write mix and overall request rate (Table 1's row).
class RwMixConsumer final : public Sink {
 public:
  void on_record(const trace::Record& r) override { on_records(&r, 1); }
  void on_records(const trace::Record* r, std::size_t n) override {
    std::uint64_t w = 0;
    for (std::size_t i = 0; i < n; ++i) w += r[i].is_write != 0 ? 1 : 0;
    writes_ += w;
    reads_ += n - w;
  }
  void on_finish(SimTime duration) override { duration_ = duration; }

  /// Exact: counters sum; the capture duration is whichever side saw one.
  void merge(const RwMixConsumer& other) {
    reads_ += other.reads_;
    writes_ += other.writes_;
    duration_ = std::max(duration_, other.duration_);
  }

  std::uint64_t reads() const { return reads_; }
  std::uint64_t writes() const { return writes_; }
  std::uint64_t total() const { return reads_ + writes_; }
  double read_pct() const;
  double write_pct() const;
  /// Over the full capture; valid after on_finish.
  double requests_per_sec() const;

 private:
  std::uint64_t reads_ = 0;
  std::uint64_t writes_ = 0;
  SimTime duration_ = 0;
};

/// Requests per second over a sliding window ending at the newest record —
/// the "current rate" of a run in flight. Memory is bounded by the records
/// inside one window.
class SlidingRateConsumer final : public Sink {
 public:
  explicit SlidingRateConsumer(SimTime window = sec(10)) : window_(window) {}

  void on_record(const trace::Record& r) override { add(r.timestamp); }
  void on_records(const trace::Record* r, std::size_t n) override {
    for (std::size_t i = 0; i < n; ++i) add(r[i].timestamp);
  }

  /// Fold in the later segment of a time-partitioned stream: `other` must
  /// have consumed records at-or-after this consumer's (the contiguous
  /// chunk shards of a capture satisfy this). Equals a single pass over
  /// the concatenation for nondecreasing timestamps.
  void merge(const SlidingRateConsumer& other);

  /// Rate over the window ending at the latest record seen.
  double rate() const;
  SimTime window() const { return window_; }

 private:
  void add(SimTime ts) {
    recent_.push_back(ts);
    const SimTime horizon = ts > window_ ? ts - window_ : SimTime{0};
    while (!recent_.empty() && recent_.front() < horizon) recent_.pop_front();
  }

  SimTime window_;
  std::deque<SimTime> recent_;
};

/// Fixed-window request-rate series (requests per second in each window of
/// the capture; records past `duration` clamp into the last window).
class WindowRateConsumer final : public Sink {
 public:
  explicit WindowRateConsumer(SimTime window = sec(10)) : window_(window) {}

  void on_record(const trace::Record& r) override;
  void on_finish(SimTime duration) override;

  /// Exact for equal window sizes: per-window counts sum element-wise.
  void merge(const WindowRateConsumer& other);

  /// Valid after on_finish; empty when duration or window is 0.
  const std::vector<double>& series() const { return series_; }

 private:
  SimTime window_;
  std::vector<std::uint64_t> counts_;  // by true window index
  std::vector<double> series_;
};

/// Spatial locality per band of `band_sectors` sectors (Fig. 7; exact).
class SpatialBandsConsumer final : public Sink {
 public:
  explicit SpatialBandsConsumer(std::uint64_t band_sectors = 100'000)
      : band_sectors_(band_sectors) {}

  void on_record(const trace::Record& r) override { on_records(&r, 1); }
  void on_records(const trace::Record* r, std::size_t n) override {
    for (std::size_t i = 0; i < n; ++i) ++bands_[r[i].sector / band_sectors_];
    total_ += n;
  }

  /// Exact: per-band counters sum. Band widths must match.
  void merge(const SpatialBandsConsumer& other);

  struct Band {
    std::uint64_t band_start_sector = 0;
    std::uint64_t requests = 0;
    double pct = 0;
  };
  /// Ascending by band start, percentages of the records seen so far.
  std::vector<Band> bands() const;
  std::uint64_t band_sectors() const { return band_sectors_; }

 private:
  std::uint64_t band_sectors_;
  util::FlatMap<std::uint64_t, std::uint64_t> bands_;  // band index -> count
  std::uint64_t total_ = 0;
};

/// Streaming hot-sector top-K: the Space-Saving sketch (Metwally, Agrawal &
/// El Abbadi, 2005). Keeps `capacity` counters; when a new sector arrives
/// at a full table it replaces the minimum counter and inherits its count
/// as the overestimation bound. While the distinct-sector population fits
/// in `capacity` no replacement ever happens and every count is exact —
/// sized for this study's traces by default; analysis::characterize sizes
/// it to the trace, so its ranking is exact on any trace.
class TopKSectorsConsumer final : public Sink {
 public:
  explicit TopKSectorsConsumer(std::size_t capacity = 65'536);

  void on_record(const trace::Record& r) override { add(r.sector); }
  void on_records(const trace::Record* r, std::size_t n) override {
    for (std::size_t i = 0; i < n; ++i) add(r[i].sector);
  }
  void on_finish(SimTime duration) override { duration_ = duration; }

  struct Entry {
    std::uint64_t sector = 0;
    std::uint64_t count = 0;  // upper bound; exact when error == 0
    std::uint64_t error = 0;  // max overcount inherited at replacement
    double per_sec = 0;       // count / capture duration (after on_finish)
  };

  /// Mergeable-summaries union of two Space-Saving sketches (Agarwal et
  /// al., PODS 2012): counts and overcount bounds sum; a sector absent
  /// from one inexact side additionally absorbs that side's minimum
  /// counter (it may have occurred there up to that many times). Exact —
  /// identical to one pass over the concatenated records — while both
  /// sides are exact and the union of tracked sectors fits `capacity`.
  /// Afterwards every count stays an upper bound and count - error a
  /// lower bound of the true frequency.
  void merge(const TopKSectorsConsumer& other);

  /// Top `k` by (count desc, sector asc).
  std::vector<Entry> top(std::size_t k) const;

  /// True while no counter was ever evicted (counts are exact frequencies).
  bool exact() const { return exact_; }
  std::size_t distinct_tracked() const { return entries_.size(); }
  std::size_t capacity() const { return capacity_; }

 private:
  void add(std::uint32_t sector) {
    if (std::uint32_t* slot = where_.find(sector)) {
      ++entries_[*slot].count;
    } else {
      add_new(sector);
    }
  }
  /// A sector not tracked yet: a free counter, or the minimum's.
  void add_new(std::uint32_t sector);

  /// Slot of the minimum-count entry with the lowest index (the eviction
  /// victim). Amortized O(1): counts only grow, so every entry at the
  /// current minimum is in the candidate stack from the last rescan.
  std::size_t take_min_slot();

  std::size_t capacity_;
  /// sector -> slot in entries_. Sectors are 32-bit (trace::Record) and so
  /// are slots: no more counters than distinct sectors are ever tracked.
  util::FlatMap<std::uint32_t, std::uint32_t> where_;
  std::vector<Entry> entries_;
  std::uint64_t min_count_ = 0;              // count shared by candidates
  std::vector<std::size_t> min_candidates_;  // descending index, lazily stale
  bool exact_ = true;
  SimTime duration_ = 0;
};

/// Per-origin-node request counts (exact) — the per-disk rows behind the
/// paper's Section 5 "average per disk" columns. Only a multi-node record
/// stream (an `esstrace merge` output) populates more than one row; a
/// single-node capture collapses to node 0.
class PerNodeConsumer final : public Sink {
 public:
  void on_record(const trace::Record& r) override { on_records(&r, 1); }
  void on_records(const trace::Record* r, std::size_t n) override {
    for (std::size_t i = 0; i < n; ++i) {
      auto& c = nodes_[r[i].node];
      ++(r[i].is_write != 0 ? c.writes : c.reads);
    }
  }

  /// Exact: counters sum node-wise.
  void merge(const PerNodeConsumer& other);

  struct Counts {
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t total() const { return reads + writes; }
  };
  /// Ascending by node id.
  std::map<std::int32_t, Counts> nodes() const;
  std::size_t distinct_nodes() const { return nodes_.size(); }

 private:
  util::FlatMap<std::int32_t, Counts> nodes_;
};

/// The standard consumer bundle: everything `esstrace stats` prints, the
/// snapshot emitter reads, and `esstrace diff` compares.
class StreamSummary final : public Sink {
 public:
  struct Options {
    std::uint64_t band_sectors = 100'000;
    std::size_t topk_capacity = 65'536;
    SimTime sliding_window = sec(10);
  };

  StreamSummary() : StreamSummary(Options{}) {}
  explicit StreamSummary(const Options& opts);

  void on_record(const trace::Record& r) override { on_records(&r, 1); }
  /// One pass per sub-consumer over the whole span.
  void on_records(const trace::Record* r, std::size_t n) override;
  void on_finish(SimTime duration) override;
  void on_drops(std::uint64_t dropped) override { dropped_ = dropped; }

  /// Fold in a summary built over a *later* time-ordered segment of the
  /// same stream (the sliding-rate precondition; every other sub-consumer
  /// merges exactly in any order). Drop tallies sum, so report drops to
  /// one side only — or after merging, as the parallel scan engine does.
  /// Call on_finish afterwards, not on the shards.
  void merge(const StreamSummary& other);

  const SizeHistogramConsumer& sizes() const { return sizes_; }
  const RwMixConsumer& rw() const { return rw_; }
  const SpatialBandsConsumer& spatial() const { return spatial_; }
  const TopKSectorsConsumer& hot() const { return hot_; }
  const SlidingRateConsumer& sliding_rate() const { return sliding_; }
  const PerNodeConsumer& per_node() const { return per_node_; }

  std::uint64_t records() const { return rw_.total(); }
  SimTime last_timestamp() const { return last_ts_; }
  bool finished() const { return finished_; }
  SimTime duration() const { return duration_; }

  /// The comparable characterization (esstrace stats/diff payload).
  struct Result {
    std::string experiment;
    std::uint64_t records = 0;
    double duration_sec = 0;
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    double read_pct = 0;
    double write_pct = 0;
    double requests_per_sec = 0;
    std::uint32_t max_request_bytes = 0;
    /// size_bytes -> percentage of requests.
    std::map<std::int64_t, double> size_pct;
    /// band start sector -> percentage of requests.
    std::map<std::uint64_t, double> band_pct;
    std::vector<TopKSectorsConsumer::Entry> hot;  // top 10
    bool hot_exact = true;
    /// Per-origin-node breakdown (Section 5's per-disk rows). Populated
    /// only when the stream carried more than one distinct node id — a
    /// merged multi-node file — so single-node output is unchanged.
    struct NodeRow {
      std::int32_t node = 0;
      std::uint64_t records = 0;
      std::uint64_t reads = 0;
      std::uint64_t writes = 0;
      double read_pct = 0;
      double requests_per_sec = 0;  // over the capture duration
    };
    std::vector<NodeRow> per_node;
    /// Capture-loss annotation: records that never reached the stream
    /// (ring overflow at capture time, chunks lost to corruption). A lossy
    /// result is still comparable, but its provenance is on the label.
    std::uint64_t dropped_records = 0;
    bool lossy = false;
  };
  Result result(const std::string& experiment = {}) const;

 private:
  SizeHistogramConsumer sizes_;
  RwMixConsumer rw_;
  SpatialBandsConsumer spatial_;
  TopKSectorsConsumer hot_;
  SlidingRateConsumer sliding_;
  PerNodeConsumer per_node_;
  SimTime last_ts_ = 0;
  SimTime duration_ = 0;
  std::uint64_t dropped_ = 0;
  bool finished_ = false;
};

}  // namespace ess::telemetry
