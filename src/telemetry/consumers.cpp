#include "telemetry/consumers.hpp"

#include <algorithm>
#include <limits>

namespace ess::telemetry {

void SizeHistogramConsumer::merge(const SizeHistogramConsumer& other) {
  other.cells_.for_each(
      [&](std::uint32_t size, std::uint64_t n) { cells_[size] += n; });
  total_ += other.total_;
  max_bytes_ = std::max(max_bytes_, other.max_bytes_);
}

Histogram SizeHistogramConsumer::histogram() const {
  Histogram h;
  cells_.for_each([&](std::uint32_t size, std::uint64_t n) {
    h.add(static_cast<std::int64_t>(size), n);
  });
  return h;
}

double SizeHistogramConsumer::fraction(std::uint32_t bytes) const {
  if (total_ == 0) return 0.0;
  const std::uint64_t* n = cells_.find(bytes);
  return n != nullptr
             ? static_cast<double>(*n) / static_cast<double>(total_)
             : 0.0;
}

double SizeHistogramConsumer::fraction_at_least(std::uint32_t bytes) const {
  if (total_ == 0) return 0.0;
  std::uint64_t n = 0;
  cells_.for_each([&](std::uint32_t size, std::uint64_t count) {
    if (size >= bytes) n += count;
  });
  return static_cast<double>(n) / static_cast<double>(total_);
}

double RwMixConsumer::read_pct() const {
  const auto t = total();
  return t > 0 ? 100.0 * static_cast<double>(reads_) / static_cast<double>(t)
               : 0.0;
}

double RwMixConsumer::write_pct() const {
  return total() > 0 ? 100.0 - read_pct() : 0.0;
}

double RwMixConsumer::requests_per_sec() const {
  const double dur = to_seconds(duration_);
  return dur > 0 ? static_cast<double>(total()) / dur : 0.0;
}

void SlidingRateConsumer::merge(const SlidingRateConsumer& other) {
  if (other.recent_.empty()) return;
  // `other` saw the later segment, so its last record is the stream's last
  // record: evict our timestamps that fell out of its window, then append.
  // `other`'s own eviction already bounded its deque to that window, so
  // the result is exactly the deque one pass would have left.
  const SimTime last = other.recent_.back();
  const SimTime horizon = last > window_ ? last - window_ : SimTime{0};
  while (!recent_.empty() && recent_.front() < horizon) recent_.pop_front();
  recent_.insert(recent_.end(), other.recent_.begin(), other.recent_.end());
}

double SlidingRateConsumer::rate() const {
  if (recent_.empty() || window_ == 0) return 0.0;
  return static_cast<double>(recent_.size()) / to_seconds(window_);
}

void WindowRateConsumer::on_record(const trace::Record& r) {
  if (window_ == 0) return;
  const std::size_t w = static_cast<std::size_t>(r.timestamp / window_);
  if (w >= counts_.size()) counts_.resize(w + 1, 0);
  ++counts_[w];
}

void WindowRateConsumer::on_finish(SimTime duration) {
  series_.clear();
  if (duration == 0 || window_ == 0) return;
  const std::size_t n =
      static_cast<std::size_t>((duration + window_ - 1) / window_);
  series_.assign(n, 0.0);
  for (std::size_t w = 0; w < counts_.size(); ++w) {
    // Records past the nominal duration clamp into the last window, so
    // every record counts exactly once.
    series_[std::min(w, n - 1)] += static_cast<double>(counts_[w]);
  }
  const double wsec = to_seconds(window_);
  for (auto& v : series_) v /= wsec;
}

void WindowRateConsumer::merge(const WindowRateConsumer& other) {
  if (counts_.size() < other.counts_.size()) {
    counts_.resize(other.counts_.size(), 0);
  }
  for (std::size_t w = 0; w < other.counts_.size(); ++w) {
    counts_[w] += other.counts_[w];
  }
}

void SpatialBandsConsumer::merge(const SpatialBandsConsumer& other) {
  other.bands_.for_each(
      [&](std::uint64_t band, std::uint64_t n) { bands_[band] += n; });
  total_ += other.total_;
}

std::vector<SpatialBandsConsumer::Band> SpatialBandsConsumer::bands() const {
  std::vector<Band> out;
  out.reserve(bands_.size());
  const auto total = static_cast<double>(total_);
  bands_.for_each([&](std::uint64_t band, std::uint64_t n) {
    out.push_back(Band{band * band_sectors_, n,
                       total > 0 ? 100.0 * static_cast<double>(n) / total
                                 : 0.0});
  });
  std::sort(out.begin(), out.end(), [](const Band& a, const Band& b) {
    return a.band_start_sector < b.band_start_sector;
  });
  return out;
}

TopKSectorsConsumer::TopKSectorsConsumer(std::size_t capacity)
    : capacity_(std::max<std::size_t>(capacity, 1)) {
  entries_.reserve(std::min<std::size_t>(capacity_, 1 << 16));
}

void TopKSectorsConsumer::add_new(std::uint32_t sector) {
  if (entries_.size() < capacity_) {
    where_[sector] = static_cast<std::uint32_t>(entries_.size());
    entries_.push_back(Entry{sector, 1, 0, 0.0});
    return;
  }
  // Replace the minimum counter (Space-Saving).
  exact_ = false;
  const std::size_t victim = take_min_slot();
  where_.erase(static_cast<std::uint32_t>(entries_[victim].sector));
  const std::uint64_t floor = entries_[victim].count;
  entries_[victim] = Entry{sector, floor + 1, floor, 0.0};
  where_[sector] = static_cast<std::uint32_t>(victim);
}

std::size_t TopKSectorsConsumer::take_min_slot() {
  // A linear min-scan per eviction makes dominantly-distinct streams
  // quadratic in the capacity, so the minimum is tracked lazily instead:
  // rescan once, stack every slot at the minimum (descending, so pops walk
  // ascending — the same lowest-index victim the scan would pick), then
  // serve evictions from the stack. Counts only grow, which keeps the
  // invariant that every slot at the current minimum is on the stack;
  // incremented slots go stale and are skipped on pop. Each rescan is paid
  // for by the pops it feeds: amortized O(1) per eviction.
  while (true) {
    while (!min_candidates_.empty()) {
      const std::size_t i = min_candidates_.back();
      min_candidates_.pop_back();
      if (entries_[i].count == min_count_) return i;
    }
    min_count_ = entries_.front().count;
    for (const Entry& e : entries_) min_count_ = std::min(min_count_, e.count);
    for (std::size_t i = entries_.size(); i-- > 0;) {
      if (entries_[i].count == min_count_) min_candidates_.push_back(i);
    }
  }
}

void TopKSectorsConsumer::merge(const TopKSectorsConsumer& other) {
  // An inexact sketch may have seen a sector it no longer tracks up to its
  // minimum counter many times; a sector absent from that side absorbs
  // that floor into both count and error (keeping count an upper bound and
  // count - error a lower bound). Exact sketches have floor 0.
  const auto floor_of = [](const TopKSectorsConsumer& c) -> std::uint64_t {
    if (c.exact_ || c.entries_.empty()) return 0;
    std::uint64_t m = std::numeric_limits<std::uint64_t>::max();
    for (const auto& e : c.entries_) m = std::min(m, e.count);
    return m;
  };
  const std::uint64_t floor_mine = floor_of(*this);
  const std::uint64_t floor_other = floor_of(other);

  // Union in place through the index this side already maintains: shared
  // sectors sum into our slot, unseen ones queue for appending. One probe
  // per entry of `other` — no scratch map of the whole union (this merge
  // sits on the parallel scan's fold path, where it used to dominate the
  // fan-out's winnings).
  std::vector<char> in_other(entries_.size(), 0);
  std::vector<Entry> incoming;
  incoming.reserve(other.entries_.size());
  for (const auto& e : other.entries_) {
    // Every tracked sector came from a record's 32-bit sector field.
    if (const std::uint32_t* slot =
            where_.find(static_cast<std::uint32_t>(e.sector))) {
      entries_[*slot].count += e.count;
      entries_[*slot].error += e.error;
      in_other[*slot] = 1;
    } else {
      incoming.push_back(e);
      incoming.back().count += floor_mine;
      incoming.back().error += floor_mine;
    }
  }
  for (std::size_t i = 0; i < in_other.size(); ++i) {
    if (in_other[i] == 0) {
      entries_[i].count += floor_other;
      entries_[i].error += floor_other;
    }
  }
  entries_.insert(entries_.end(), incoming.begin(), incoming.end());

  const auto by_rank = [](const Entry& a, const Entry& b) {
    if (a.count != b.count) return a.count > b.count;
    return a.sector < b.sector;
  };
  // Truncating to capacity keeps the Space-Saving invariant: everything
  // dropped counted at most the retained minimum, so a later arrival of an
  // untracked sector still inherits a valid overcount bound. Select the
  // survivors first so only they pay for the full ordering.
  exact_ = exact_ && other.exact_ && entries_.size() <= capacity_;
  if (entries_.size() > capacity_) {
    std::nth_element(entries_.begin(),
                     entries_.begin() + static_cast<std::ptrdiff_t>(capacity_),
                     entries_.end(), by_rank);
    entries_.resize(capacity_);
  }
  std::sort(entries_.begin(), entries_.end(), by_rank);
  where_.clear();
  where_.reserve(entries_.size());
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    where_[static_cast<std::uint32_t>(entries_[i].sector)] =
        static_cast<std::uint32_t>(i);
  }
  // Slots moved; the next eviction rescans for the new minimum.
  min_candidates_.clear();
  min_count_ = 0;
  duration_ = std::max(duration_, other.duration_);
}

std::vector<TopKSectorsConsumer::Entry> TopKSectorsConsumer::top(
    std::size_t k) const {
  std::vector<Entry> out = entries_;
  std::sort(out.begin(), out.end(), [](const Entry& a, const Entry& b) {
    if (a.count != b.count) return a.count > b.count;
    return a.sector < b.sector;
  });
  if (out.size() > k) out.resize(k);
  const double dur = to_seconds(duration_);
  for (auto& e : out) {
    e.per_sec = dur > 0 ? static_cast<double>(e.count) / dur : 0.0;
  }
  return out;
}

void PerNodeConsumer::merge(const PerNodeConsumer& other) {
  other.nodes_.for_each([&](std::int32_t node, const Counts& c) {
    auto& mine = nodes_[node];
    mine.reads += c.reads;
    mine.writes += c.writes;
  });
}

std::map<std::int32_t, PerNodeConsumer::Counts> PerNodeConsumer::nodes()
    const {
  std::map<std::int32_t, Counts> out;
  nodes_.for_each(
      [&](std::int32_t node, const Counts& c) { out.emplace(node, c); });
  return out;
}

StreamSummary::StreamSummary(const Options& opts)
    : spatial_(opts.band_sectors),
      hot_(opts.topk_capacity),
      sliding_(opts.sliding_window) {}

void StreamSummary::on_records(const trace::Record* r, std::size_t n) {
  // Consumer by consumer rather than record by record: each pass keeps one
  // consumer's table hot in cache, and the calls are direct (the
  // sub-consumers are final), so the chunk costs one virtual call in all.
  sizes_.on_records(r, n);
  rw_.on_records(r, n);
  spatial_.on_records(r, n);
  hot_.on_records(r, n);
  sliding_.on_records(r, n);
  per_node_.on_records(r, n);
  for (std::size_t i = 0; i < n; ++i) {
    last_ts_ = std::max(last_ts_, r[i].timestamp);
  }
}

void StreamSummary::merge(const StreamSummary& other) {
  sizes_.merge(other.sizes_);
  rw_.merge(other.rw_);
  spatial_.merge(other.spatial_);
  hot_.merge(other.hot_);
  sliding_.merge(other.sliding_);
  per_node_.merge(other.per_node_);
  last_ts_ = std::max(last_ts_, other.last_ts_);
  dropped_ += other.dropped_;
}

void StreamSummary::on_finish(SimTime duration) {
  duration_ = duration > 0 ? duration : last_ts_;
  sizes_.on_finish(duration_);
  rw_.on_finish(duration_);
  spatial_.on_finish(duration_);
  hot_.on_finish(duration_);
  sliding_.on_finish(duration_);
  finished_ = true;
}

StreamSummary::Result StreamSummary::result(
    const std::string& experiment) const {
  Result res;
  res.experiment = experiment;
  res.records = records();
  res.duration_sec = to_seconds(finished_ ? duration_ : last_ts_);
  res.reads = rw_.reads();
  res.writes = rw_.writes();
  res.read_pct = rw_.read_pct();
  res.write_pct = rw_.write_pct();
  res.requests_per_sec =
      res.duration_sec > 0
          ? static_cast<double>(res.records) / res.duration_sec
          : 0.0;
  res.max_request_bytes = sizes_.max_request_bytes();
  const Histogram sizes = sizes_.histogram();
  for (const auto& [size, count] : sizes.cells()) {
    res.size_pct[size] = res.records > 0
                             ? 100.0 * static_cast<double>(count) /
                                   static_cast<double>(res.records)
                             : 0.0;
  }
  for (const auto& b : spatial_.bands()) {
    res.band_pct[b.band_start_sector] = b.pct;
  }
  res.hot = hot_.top(10);
  res.hot_exact = hot_.exact();
  if (per_node_.distinct_nodes() > 1) {
    for (const auto& [node, c] : per_node_.nodes()) {
      Result::NodeRow row;
      row.node = node;
      row.records = c.total();
      row.reads = c.reads;
      row.writes = c.writes;
      row.read_pct = c.total() > 0 ? 100.0 * static_cast<double>(c.reads) /
                                         static_cast<double>(c.total())
                                   : 0.0;
      row.requests_per_sec =
          res.duration_sec > 0
              ? static_cast<double>(c.total()) / res.duration_sec
              : 0.0;
      res.per_node.push_back(row);
    }
  }
  res.dropped_records = dropped_;
  res.lossy = dropped_ > 0;
  return res;
}

}  // namespace ess::telemetry
