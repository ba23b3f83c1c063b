#include "analysis/parallel.hpp"

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <future>
#include <memory>
#include <stdexcept>
#include <utility>

#include "exec/thread_pool.hpp"
#include "telemetry/esst_view.hpp"

namespace ess::analysis {
namespace {

/// A few shards per worker: enough slack that one slow shard cannot
/// straggle the whole scan, few enough that per-shard overhead stays
/// noise.
constexpr std::size_t kShardsPerWorker = 4;

/// Floor on a byte-weighted shard's size. A shard must carry enough
/// decode+consume work to amortize folding its StreamSummary into the
/// running result — the fold's top-K union costs up to one probe per
/// tracked sector plus a re-rank, a near-constant toll per shard — so
/// small captures run as a single serial pass instead of shattering into
/// shards whose merges eat the fan-out's winnings. Re-measured with the
/// flat-table fold (4-thread x86-64 host, a 14.9 MB capture whose sketch
/// overflows, median of 7): floors of 1/2/4/8/16 MiB scan in 278/178/
/// 134/153/184 ms at 2 jobs and 214/137/104/158/161 ms at 4 jobs, against
/// 197 ms serial, so 4 MiB still sits at the optimum. ESS_SHARD_MIN_BYTES
/// overrides (tests force tiny shards through the parallel path with it).
constexpr std::uint64_t kDefaultMinShardBytes = 4 * 1024 * 1024;

std::uint64_t default_min_shard_bytes() {
  // Digits only, as ESS_JOBS: "-1", " 64", "+64", "64k" and anything past
  // 2^64 - 1 fall back to the default instead of whatever strtoull would
  // salvage from them (it turns "-1" into a 2^64 - 1 floor).
  if (const char* v = std::getenv("ESS_SHARD_MIN_BYTES")) {
    const char* const end = v + std::strlen(v);
    std::uint64_t n = 0;
    const auto [stop, ec] = std::from_chars(v, end, n);
    if (ec == std::errc() && stop == end && n > 0) return n;
  }
  return kDefaultMinShardBytes;
}

/// Cut [0, chunks) at the given cumulative-weight marks: shard s ends
/// where the running total first reaches (s+1)/shards of the grand total.
std::vector<std::pair<std::size_t, std::size_t>> cut_by_weight(
    const std::vector<std::uint64_t>& weights, std::uint64_t total,
    std::size_t shards) {
  std::vector<std::pair<std::size_t, std::size_t>> out;
  out.reserve(shards);
  std::size_t lo = 0;
  std::size_t i = 0;
  std::uint64_t acc = 0;
  for (std::size_t s = 0; s < shards; ++s) {
    // Integer mark: the last shard's mark is exactly `total`, so the final
    // range always ends at weights.size() — exact coverage by construction.
    const std::uint64_t mark = total / shards * (s + 1) +
                               (total % shards) * (s + 1) / shards;
    while (i < weights.size() && (acc < mark || s + 1 == shards)) {
      acc += weights[i++];
    }
    if (i > lo) out.emplace_back(lo, i);
    lo = i;
  }
  return out;
}

}  // namespace

std::vector<std::pair<std::size_t, std::size_t>> shard_ranges_weighted(
    const std::vector<std::uint64_t>& chunk_bytes, std::size_t workers,
    std::uint64_t min_shard_bytes) {
  std::uint64_t total = 0;
  for (const auto b : chunk_bytes) total += b;
  if (chunk_bytes.empty()) return {};
  if (workers <= 1 || total == 0) return {{0, chunk_bytes.size()}};
  if (min_shard_bytes == 0) min_shard_bytes = default_min_shard_bytes();
  // Cap shards three ways: one per chunk at most, a few per worker, and
  // nothing smaller than min_shard_bytes of decode work.
  const std::size_t shards = std::max<std::size_t>(
      1, std::min({chunk_bytes.size(),
                   std::max<std::size_t>(workers, 1) * kShardsPerWorker,
                   static_cast<std::size_t>(total / min_shard_bytes)}));
  return cut_by_weight(chunk_bytes, total, shards);
}

namespace {

/// Per-chunk byte weights for byte-balanced sharding.
std::vector<std::uint64_t> chunk_weights(const telemetry::EsstView& view) {
  std::vector<std::uint64_t> bytes(view.chunks().size());
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = view.chunk_bytes(i);
  }
  return bytes;
}

}  // namespace

ScanResult scan_esst(const std::string& path, std::size_t jobs,
                     const telemetry::StreamSummary::Options& opts) {
  const std::size_t workers = exec::resolve_workers(jobs);
  ScanResult out;

  const telemetry::EsstView view(path);
  out.salvaged = view.salvaged();
  out.experiment = view.meta().experiment;
  out.capture_dropped = view.capture_dropped();
  // The chunks a salvage scan discarded never reach the chunk list; count
  // their records once, before the shards add their own decode failures.
  out.lost_records = view.scan_losses().records_lost;
  const auto ranges = shard_ranges_weighted(chunk_weights(view), workers);

  // One shard loop at every worker count: jobs <= 1 (or a capture under
  // the shard floor) is one shard on the calling thread, the serial fold.
  // A capture with no chunks still gets its (empty) first summary.
  const std::size_t nsummaries = std::max<std::size_t>(ranges.size(), 1);
  std::vector<telemetry::StreamSummary> summaries;
  summaries.reserve(nsummaries);
  for (std::size_t s = 0; s < nsummaries; ++s) summaries.emplace_back(opts);
  std::vector<std::uint64_t> lost(ranges.size(), 0);
  exec::parallel_for(workers, ranges.size(), [&](std::size_t s) {
    // Every shard decodes straight out of the one shared mapping; the
    // only per-shard state is its summary and its record scratch, which
    // is reused across all the shard's chunks.
    const auto [lo, hi] = ranges[s];
    view.advise_chunks(lo, hi);
    std::vector<trace::Record> recs;
    recs.reserve(view.meta().records_per_chunk);
    for (std::size_t i = lo; i < hi; ++i) {
      try {
        view.decode_chunk(i, recs);
        summaries[s].on_records(recs.data(), recs.size());
      } catch (const std::runtime_error&) {
        lost[s] += view.chunks()[i].records;
      }
    }
  });
  // Shard order == chunk order, so each merge folds in the later time
  // segment — the consumers' merge precondition. The first shard is the
  // start of the fold, so one shard is exactly the serial chunk loop.
  out.summary = std::move(summaries.front());
  for (std::size_t s = 0; s < ranges.size(); ++s) {
    if (s > 0) out.summary.merge(summaries[s]);
    out.lost_records += lost[s];
  }
  out.summary.on_drops(out.capture_dropped + out.lost_records);
  out.summary.on_finish(view.duration());
  return out;
}

telemetry::SalvageReport verify_esst(const std::string& path,
                                     std::size_t jobs) {
  return verify_esst(telemetry::EsstView(path), jobs);
}

telemetry::SalvageReport verify_esst(const telemetry::EsstView& view,
                                     std::size_t jobs) {
  const std::size_t workers = exec::resolve_workers(jobs);
  const auto ranges = shard_ranges_weighted(chunk_weights(view), workers);
  std::vector<telemetry::SalvageReport> shards(ranges.size());
  exec::parallel_for(workers, ranges.size(), [&](std::size_t s) {
    const auto [lo, hi] = ranges[s];
    telemetry::SalvageReport& shard = shards[s];
    std::vector<trace::Record> recs;
    recs.reserve(view.meta().records_per_chunk);
    for (std::size_t i = lo; i < hi; ++i) {
      try {
        view.decode_chunk(i, recs);
        ++shard.chunks_kept;
        shard.records_kept += recs.size();
      } catch (const std::runtime_error&) {
        ++shard.chunks_lost;
        shard.records_lost += view.chunks()[i].records;
        if (!shard.first_bad_offset) {
          shard.first_bad_offset = view.chunks()[i].offset;
        }
      }
    }
  });

  // Start from what opening the file established — index state, capture
  // drops, and the damage a salvage scan already discarded (those chunks
  // never made it into the chunk list) — and add the decode pass.
  telemetry::SalvageReport rep = view.scan_losses();
  for (const auto& shard : shards) {
    rep.chunks_kept += shard.chunks_kept;
    rep.chunks_lost += shard.chunks_lost;
    rep.records_kept += shard.records_kept;
    rep.records_lost += shard.records_lost;
    const auto& bad = shard.first_bad_offset;
    if (bad && (!rep.first_bad_offset || *bad < *rep.first_bad_offset)) {
      rep.first_bad_offset = bad;
    }
  }
  // The trailer's total outrunning the index's per-chunk sum means the
  // index itself lost entries; trust the larger claim so the report never
  // understates loss (salvaged files carry no trailer claim).
  if (view.trailer_records() > rep.records_kept + rep.records_lost) {
    rep.records_lost = view.trailer_records() - rep.records_kept;
  }
  return rep;
}

namespace {

/// Merge order: (timestamp, node id, input position). Node id breaks
/// timestamp ties, input position makes even equal (timestamp, node)
/// pairs — two inputs from the same node — stable. Distinct inputs can
/// therefore never compare equal, which the loser tree below relies on.
///
/// The tuple is packed into one 128-bit integer so each tournament match
/// is a single unsigned compare: the timestamp in the high 64 bits, then
/// the node id with its sign bit flipped (which maps INT32_MIN..INT32_MAX
/// onto 0..UINT32_MAX in order), then the input position in the low 32.
using MergeKey = unsigned __int128;

inline MergeKey merge_key(SimTime ts, std::int32_t node,
                          std::size_t input) {
  const std::uint32_t biased_node =
      static_cast<std::uint32_t>(node) ^ 0x80000000u;
  return (static_cast<MergeKey>(ts) << 64) |
         (static_cast<MergeKey>(biased_node) << 32) |
         static_cast<MergeKey>(input);
}

/// The "no cursor here" sentinel: all ones, so it sorts after every real
/// key — a real record at the maximum timestamp and node id still wins on
/// the input field, since real input positions are < UINT32_MAX.
constexpr MergeKey kExhaustedKey = ~MergeKey{0};
/// merge_esst refuses this many inputs or more, which keeps every input
/// position inside the key's 32-bit field and below the sentinel's.
constexpr std::size_t kMergeInputLimit = 0xFFFFFFFFu;

/// One input of the k-way merge: its decoded-chunk double buffer and at
/// most one chunk-decode in flight on the pool. Each input decodes
/// zero-copy from its own EsstView (salvaged inputs included). The two
/// decode buffers swap roles on every refill, so a long merge settles into
/// steady-state with no per-chunk allocation at all.
struct MergeCursor {
  std::unique_ptr<telemetry::EsstView> view;
  std::int32_t stamp_node = 0;  // v1 inputs: header node id per record
  bool stamp = false;
  std::size_t next_chunk = 0;  // next chunk index to schedule
  std::vector<trace::Record> recs;  // front buffer, being drained
  std::vector<trace::Record> back;  // back buffer, decode target
  bool recs_sorted = false;  // front buffer non-decreasing by (ts, node)?
  bool back_sorted = false;  // computed by the decode worker
  std::size_t pos = 0;
  std::future<void> pending;
  std::uint64_t lost_records = 0;  // damaged chunks skipped here

  const trace::Record& front() const { return recs[pos]; }

  /// Start loading the front buffer a few records ahead. With many inputs
  /// interleaved record by record, a cursor comes up again only after
  /// every other one had its turn — too many streams for the hardware
  /// prefetcher to follow — so each visit fetches the line its next
  /// visits will read.
  void prefetch_ahead() const {
    if (pos + 4 < recs.size()) __builtin_prefetch(recs.data() + pos + 4);
  }

  void schedule(exec::ThreadPool& pool) {
    if (next_chunk >= view->chunks().size()) return;
    const std::size_t idx = next_chunk++;
    auto task = std::make_shared<std::packaged_task<void()>>([this, idx] {
      back.clear();
      back_sorted = false;
      try {
        view->decode_chunk(idx, back);
        if (stamp) {
          for (auto& r : back) r.node = stamp_node;
        }
        // Sortedness by (ts, node) unlocks galloping run emission; checked
        // here, on the worker, where it overlaps other cursors' decodes.
        // Capture timestamps are non-decreasing in practice, so this is
        // one predictable pass — but nothing downstream assumes it holds.
        back_sorted = std::is_sorted(
            back.begin(), back.end(),
            [](const trace::Record& a, const trace::Record& b) {
              return a.timestamp != b.timestamp ? a.timestamp < b.timestamp
                                                : a.node < b.node;
            });
      } catch (const std::runtime_error&) {
        back.clear();
        lost_records += view->chunks()[idx].records;
      }
    });
    pending = task->get_future();
    pool.submit([task] { (*task)(); });
  }

  /// Make front() valid or return false at end of input. Collects the
  /// in-flight decode into the back buffer, swaps it to the front, and
  /// immediately schedules the next one — so with workers the next chunk
  /// decodes while this one drains, and both buffers keep their capacity
  /// for the whole merge.
  bool refill(exec::ThreadPool& pool) {
    while (pos >= recs.size()) {
      if (!pending.valid()) return false;
      pending.get();
      std::swap(recs, back);
      recs_sorted = back_sorted;
      pos = 0;
      schedule(pool);
    }
    return true;
  }

  MergeKey front_key(std::size_t input) const {
    return merge_key(front().timestamp, front().node, input);
  }

  /// End of the emittable run: the first index in [pos, recs.size())
  /// whose key does not sort before `limit` (every other cursor's best
  /// front), or recs.size(). The caller guarantees the record at `pos`
  /// qualifies (it is the tournament winner). When the decode worker
  /// proved the buffer sorted, gallop — exponential probe then bisect —
  /// so a cursor that owns a long quiet stretch of the timeline emits it
  /// in O(log run) comparisons; otherwise scan linearly, which is still
  /// exactly the record-at-a-time tournament order.
  std::size_t run_end(MergeKey limit, std::size_t input) const {
    const auto before = [&](const trace::Record& r) {
      return merge_key(r.timestamp, r.node, input) < limit;
    };
    const std::size_t n = recs.size();
    if (!recs_sorted) {
      std::size_t i = pos + 1;
      while (i < n && before(recs[i])) ++i;
      return i;
    }
    std::size_t lo = pos;  // before() known true here
    std::size_t hi = pos + 1;
    std::size_t step = 1;
    while (hi < n && before(recs[hi])) {
      lo = hi;
      hi += step;
      step *= 2;
    }
    hi = std::min(hi, n);
    while (lo + 1 < hi) {
      const std::size_t mid = lo + (hi - lo) / 2;
      if (before(recs[mid])) {
        lo = mid;
      } else {
        hi = mid;
      }
    }
    return hi;
  }
};

/// Tournament loser tree over the k cursor fronts. Advancing the winner
/// replays one leaf-to-root path: log k single-integer compares against
/// the losers stored on it, no sift-down double compares like a binary
/// heap. Exhausted cursors hold the +inf sentinel; the caller tracks how
/// many are live.
class LoserTree {
 public:
  explicit LoserTree(std::size_t k)
      : k_(k),
        tree_(std::max<std::size_t>(k, 1), 0),
        keys_(k, kExhaustedKey) {}

  void set_key(std::size_t leaf, MergeKey key) { keys_[leaf] = key; }

  /// Full rebuild from the current keys: one post-order tournament.
  void build() { tree_[0] = k_ >= 2 ? play(1) : 0; }

  std::size_t winner() const { return tree_[0]; }

  /// Re-run the winner's leaf-to-root path after its key changed.
  void replay(std::size_t leaf) {
    std::size_t w = leaf;
    MergeKey wkey = keys_[leaf];
    for (std::size_t node = (leaf + k_) / 2; node >= 1; node /= 2) {
      // Branch-free: on interleaved inputs each match is a coin flip, and
      // a branch here mispredicted about every other level. `m` is all
      // ones when the stored loser beats the climber and they trade places.
      const std::size_t t = tree_[node];
      const MergeKey tkey = keys_[t];
      const std::size_t m = 0 - static_cast<std::size_t>(tkey < wkey);
      const MergeKey mk = (static_cast<MergeKey>(m) << 64) | m;
      tree_[node] = (w & m) | (t & ~m);
      w = (t & m) | (w & ~m);
      wkey = (tkey & mk) | (wkey & ~mk);
    }
    tree_[0] = w;
  }

  /// The best front among the *other* cursors. The true runner-up must
  /// have lost directly to the champion, so it sits on the champion's
  /// root path — the minimum over those stored losers, not simply the
  /// root's loser (which may have lost higher up to a key that was
  /// already beaten below).
  MergeKey runner_up() const {
    MergeKey best = kExhaustedKey;
    for (std::size_t node = (tree_[0] + k_) / 2; node >= 1; node /= 2) {
      best = std::min(best, keys_[tree_[node]]);
    }
    return best;
  }

 private:
  /// Play out the subtree under internal node `node`: stores losers on the
  /// way up, returns the subtree's winner. External node k+i is leaf i.
  std::size_t play(std::size_t node) {
    if (node >= k_) return node - k_;
    std::size_t a = play(2 * node);
    std::size_t b = play(2 * node + 1);
    if (keys_[b] < keys_[a]) std::swap(a, b);
    tree_[node] = b;  // loser rests here
    return a;         // winner plays on
  }

  std::size_t k_;
  std::vector<std::size_t> tree_;  // [0] champion, [1..k) losers
  std::vector<MergeKey> keys_;     // per leaf
};

}  // namespace

MergeResult merge_esst(const std::vector<std::string>& inputs,
                       const std::string& out_path, std::size_t jobs) {
  if (inputs.empty()) {
    throw std::runtime_error("merge needs at least one input");
  }
  if (inputs.size() >= kMergeInputLimit) {
    throw std::runtime_error("merge takes fewer than 2^32 - 1 inputs");
  }
  const std::size_t workers = exec::resolve_workers(jobs);
  // Workers only prefetch chunk decodes; the merge order below never
  // depends on them, so any --jobs value writes the same bytes.
  exec::ThreadPool pool(workers <= 1 ? 0 : workers);

  MergeResult result;
  result.inputs = inputs.size();
  std::uint64_t capture_dropped = 0;
  std::vector<MergeCursor> cursors(inputs.size());
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    auto& c = cursors[i];
    c.view = std::make_unique<telemetry::EsstView>(inputs[i]);
    c.stamp = !c.view->meta().multi_node;
    c.stamp_node = c.view->meta().node_id;
    capture_dropped += c.view->capture_dropped();
    result.duration = std::max(result.duration, c.view->duration());
    c.schedule(pool);
  }

  // The merged file: format v2 (every record carries its node), header
  // metadata from the first input, node id -1 = "the cluster" (the same
  // convention cluster::Cluster uses for its merged TraceSet).
  telemetry::EsstMeta meta = cursors.front().view->meta();
  meta.node_id = -1;
  meta.multi_node = true;
  std::ofstream out_file(out_path, std::ios::binary | std::ios::trunc);
  if (!out_file) throw std::runtime_error("cannot open " + out_path);
  telemetry::EsstWriter writer(out_file, meta, out_path);
  // With workers, the output side pipelines too: chunk payloads encode +
  // CRC on the pool while this thread runs the tournament. Chunks are
  // still written in submission order, so bytes never depend on --jobs.
  if (workers > 1) writer.set_encode_pool(&pool);

  // k-way tournament (loser tree) instead of a binary heap: emitting a
  // record costs one leaf-to-root replay of its cursor's next key. When
  // the same cursor wins twice running, its buffer is likely a run ahead
  // of the others: then the runner-up key bounds how far it can run, and
  // every record of the buffer that sorts before *every* other cursor's
  // front is emitted as one batch (galloped when the chunk is sorted).
  // Interleaved inputs — one record per win — pay one replay per record;
  // coarsely interleaved ones — each node owning long stretches of the
  // timeline — a handful of compares per run. Record-exact for arbitrary
  // (even unsorted) inputs either way.
  LoserTree tree(cursors.size());
  std::size_t live = 0;
  for (std::size_t i = 0; i < cursors.size(); ++i) {
    if (cursors[i].refill(pool)) {
      tree.set_key(i, cursors[i].front_key(i));
      ++live;
    }
  }
  tree.build();
  std::size_t last_winner = cursors.size();  // none yet
  while (live > 0) {
    const std::size_t i = tree.winner();
    auto& c = cursors[i];
    if (i != last_winner) {
      writer.append(c.recs[c.pos]);
      ++result.records_written;
      ++c.pos;
    } else {
      const std::size_t end = c.run_end(tree.runner_up(), i);
      writer.append(c.recs.data() + c.pos, end - c.pos);
      result.records_written += end - c.pos;
      c.pos = end;
    }
    last_winner = i;
    if (c.pos < c.recs.size() || c.refill(pool)) {
      tree.set_key(i, c.front_key(i));
      c.prefetch_ahead();
    } else {
      tree.set_key(i, kExhaustedKey);
      --live;
    }
    tree.replay(i);
  }

  // Each input's losses: chunks that failed to decode here, plus those its
  // salvage scan already discarded.
  for (const auto& c : cursors) {
    result.dropped_records +=
        c.lost_records + c.view->scan_losses().records_lost;
  }
  result.dropped_records += capture_dropped;
  writer.set_dropped_records(result.dropped_records);
  writer.finish(result.duration);
  if (!out_file) throw std::runtime_error("write failed: " + out_path);
  return result;
}

}  // namespace ess::analysis
