#include "analysis/parallel.hpp"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
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
    const auto n = exec::parse_digits(v);
    if (n && *n > 0) return *n;
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
  // Shard order == chunk order, so each merge folds in the later time
  // segment — the consumers' merge precondition. Shards fold in that
  // order as soon as every earlier one has, overlapping the fold with
  // the shards still decoding. The first shard is the start of the fold,
  // so one shard is exactly the serial chunk loop.
  std::mutex mu;
  std::vector<char> done(ranges.size(), 0);  // guarded by mu
  std::vector<std::uint64_t> lost(ranges.size(), 0);
  std::size_t folded = 0;  // guarded by mu
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
    std::lock_guard<std::mutex> lock(mu);
    done[s] = 1;
    for (; folded < ranges.size() && done[folded] != 0; ++folded) {
      if (folded > 0) summaries.front().merge(summaries[folded]);
    }
  });
  out.summary = std::move(summaries.front());
  for (const auto l : lost) out.lost_records += l;
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
    for (std::size_t i = lo; i < hi; ++i) {
      try {
        shard.records_kept += view.check_chunk(i);
        ++shard.chunks_kept;
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

/// One merge input: its view (salvaged inputs included) and how its
/// records get their node id.
struct MergeInput {
  std::unique_ptr<telemetry::EsstView> view;
  std::int32_t stamp_node = 0;  // v1 inputs: header node id per record
  bool stamp = false;

  const std::vector<telemetry::ChunkInfo>& chunks() const {
    return view->chunks();
  }

  /// Decode chunk `c` into `out` with every record's node set; false (and
  /// `out` empty) when the chunk is damaged.
  bool decode(std::size_t c, std::vector<trace::Record>& out) const {
    try {
      view->decode_chunk(c, out);
    } catch (const std::runtime_error&) {
      out.clear();
      return false;
    }
    if (stamp) {
      for (auto& r : out) r.node = stamp_node;
    }
    return true;
  }
};

/// The merge order within one input: (timestamp, node), then position.
inline bool ts_node_less(const trace::Record& a, const trace::Record& b) {
  return a.timestamp != b.timestamp ? a.timestamp < b.timestamp
                                    : a.node < b.node;
}

/// A place in one input: record `offset` of chunk `chunk`; {chunks, 0} is
/// the end.
struct InputPos {
  std::size_t chunk = 0;
  std::size_t offset = 0;
};

/// What one part of the merge saw while it decoded its inputs.
struct PartReport {
  std::uint64_t records = 0;  // records the part emitted
  /// (input, chunk) of every chunk that failed to decode.
  std::vector<std::pair<std::size_t, std::size_t>> damaged;
  /// Every chunk non-decreasing by (ts, node) and of its indexed size, and
  /// so every chunk boundary the part crossed: the premise of its cuts.
  bool ordered = true;
};

/// One input of one part: the input's records in [begin, end), decoded a
/// chunk at a time into one reused buffer.
struct MergeCursor {
  const MergeInput* in = nullptr;
  std::size_t input = 0;
  InputPos begin;
  InputPos end;
  std::size_t next_chunk = 0;  // next chunk index to decode
  std::vector<trace::Record> recs;  // the chunk being drained
  bool recs_sorted = false;  // recs non-decreasing by (ts, node)?
  std::size_t pos = 0;
  trace::Record last;  // the previous chunk's last record
  bool have_last = false;
  PartReport* report = nullptr;
  std::atomic<bool>* abort = nullptr;  // multi-part runs: stop early

  const trace::Record& front() const { return recs[pos]; }

  /// Start loading the front buffer a few records ahead. With many inputs
  /// interleaved record by record, a cursor comes up again only after
  /// every other one had its turn — too many streams for the hardware
  /// prefetcher to follow — so each visit fetches the line its next
  /// visits will read.
  void prefetch_ahead() const {
    if (pos + 4 < recs.size()) __builtin_prefetch(recs.data() + pos + 4);
  }

  /// Make front() valid or return false at the end of the range: decode
  /// the next chunk, clip it to [begin, end), skip damaged chunks.
  bool refill() {
    const std::size_t stop = end.offset > 0 ? end.chunk + 1 : end.chunk;
    while (pos >= recs.size()) {
      if (next_chunk >= stop) return false;
      if (abort != nullptr && abort->load(std::memory_order_relaxed)) {
        return false;
      }
      const std::size_t c = next_chunk++;
      pos = 0;
      if (!in->decode(c, recs)) {
        report->damaged.emplace_back(input, c);
        continue;
      }
      // Sortedness by (ts, node) unlocks galloping run emission. Capture
      // timestamps are non-decreasing in practice, so this is one
      // predictable pass; a multi-part merge also needs it to hold, and
      // the boundary from the previous chunk with it.
      recs_sorted = std::is_sorted(recs.begin(), recs.end(), ts_node_less);
      bool ordered = recs_sorted && recs.size() == in->chunks()[c].records;
      if (!recs.empty()) {
        if (have_last && ts_node_less(recs.front(), last)) ordered = false;
        last = recs.back();
        have_last = true;
      }
      if (!ordered) {
        report->ordered = false;
        if (abort != nullptr) abort->store(true);
      }
      if (c == end.chunk) recs.resize(std::min(end.offset, recs.size()));
      if (c == begin.chunk) pos = std::min(begin.offset, recs.size());
    }
    return true;
  }

  MergeKey front_key() const {
    return merge_key(front().timestamp, front().node, input);
  }

  /// End of the emittable run: the first index in [pos, recs.size())
  /// whose key does not sort before `limit` (every other cursor's best
  /// front), or recs.size(). The caller guarantees the record at `pos`
  /// qualifies (it is the tournament winner). When the chunk is sorted,
  /// gallop — exponential probe then bisect — so a cursor that owns a
  /// long quiet stretch of the timeline emits it in O(log run)
  /// comparisons; otherwise scan linearly, which is still exactly the
  /// record-at-a-time tournament order.
  std::size_t run_end(MergeKey limit) const {
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

/// Merge one part: each input's records in [begin[j], end[j]), in
/// (timestamp, node, input, position) order, appended to `w`; `on_chunks`
/// runs whenever `w` holds framed chunks (stream-less writers only). With
/// every range an input's whole extent this is the serial merge.
///
/// k-way tournament (loser tree) instead of a binary heap: emitting a
/// record costs one leaf-to-root replay of its cursor's next key. When
/// the same cursor wins twice running, its buffer is likely a run ahead
/// of the others: then the runner-up key bounds how far it can run, and
/// every record of the buffer that sorts before *every* other cursor's
/// front is emitted as one batch (galloped when the chunk is sorted).
/// Interleaved inputs — one record per win — pay one replay per record;
/// coarsely interleaved ones — each node owning long stretches of the
/// timeline — a handful of compares per run. Record-exact for arbitrary
/// (even unsorted) inputs either way.
PartReport merge_part(const std::vector<MergeInput>& ins,
                      const InputPos* begin, const InputPos* end,
                      telemetry::EsstWriter& w,
                      const std::function<void()>& on_chunks,
                      std::atomic<bool>* abort) {
  PartReport report;
  std::vector<MergeCursor> cursors(ins.size());
  LoserTree tree(cursors.size());
  std::size_t live = 0;
  for (std::size_t i = 0; i < cursors.size(); ++i) {
    auto& c = cursors[i];
    c.in = &ins[i];
    c.input = i;
    c.begin = begin[i];
    c.end = end[i];
    c.next_chunk = begin[i].chunk;
    c.report = &report;
    c.abort = abort;
    if (c.refill()) {
      tree.set_key(i, c.front_key());
      ++live;
    }
  }
  tree.build();
  std::size_t last_winner = cursors.size();  // none yet
  while (live > 0) {
    const std::size_t i = tree.winner();
    auto& c = cursors[i];
    if (i != last_winner) {
      w.append(c.recs[c.pos]);
      ++report.records;
      ++c.pos;
    } else {
      const std::size_t end_pos = c.run_end(tree.runner_up());
      w.append(c.recs.data() + c.pos, end_pos - c.pos);
      report.records += end_pos - c.pos;
      c.pos = end_pos;
    }
    if (w.has_framed_chunks()) on_chunks();
    last_winner = i;
    if (c.pos < c.recs.size() || c.refill()) {
      tree.set_key(i, c.front_key());
      c.prefetch_ahead();
    } else {
      tree.set_key(i, kExhaustedKey);
      --live;
    }
    tree.replay(i);
  }
  return report;
}

/// The merge cut into parts: bounds[p][j] is where part p starts in input
/// j, bounds[parts][j] the input's end, and ranks[p] the output rank of
/// bound p — a multiple of the output's records_per_chunk, so every part
/// but the last frames whole chunks only.
struct MergePlan {
  std::vector<std::vector<InputPos>> bounds;
  std::vector<std::uint64_t> ranks;
  std::size_t parts() const { return bounds.size() - 1; }
};

/// The serial merge: one part over every input's whole extent.
MergePlan whole_plan(const std::vector<MergeInput>& ins) {
  MergePlan plan;
  plan.bounds.assign(2, std::vector<InputPos>(ins.size()));
  for (std::size_t j = 0; j < ins.size(); ++j) {
    plan.bounds[1][j].chunk = ins[j].chunks().size();
  }
  plan.ranks = {0, 0};  // the last part's size is never checked
  return plan;
}

/// Record counts per input that the cut search believes: chunk records
/// from the index, a damaged chunk found so far counted as empty.
/// prefix[j][c] is the number of records in input j before chunk c.
using Prefix = std::vector<std::vector<std::uint64_t>>;

/// One cut: per input, how many of its records (by `prefix`) sort before
/// output rank `rank`; or, when a candidate chunk turned out damaged, the
/// chunks to count as empty before searching again.
struct Cut {
  std::vector<std::uint64_t> before;
  std::vector<std::pair<std::size_t, std::size_t>> damaged;
  bool ok = true;  // false: the inputs are not ordered as the search needs
};

/// k-way rank selection (Merge Path, generalised to k inputs): which
/// records form the first `rank` of the merged sequence. The chunk index
/// brackets the timestamp of record `rank` between t_lo and t_hi without
/// decoding anything; only the chunks whose [ts_first, ts_last] meet that
/// bracket — one or two per input — are decoded, and a bisection over
/// the packed key finds the exact split among them.
Cut find_cut(const std::vector<MergeInput>& ins, const Prefix& prefix,
             std::uint64_t rank, exec::ThreadPool& pool) {
  using Wide = unsigned __int128;  // timestamps and one past the largest
  const std::size_t k = ins.size();
  // The first chunk of input j whose ts_last (`last`) or ts_first is not
  // below t, and the records before it summed over the inputs.
  const auto first_chunk = [&](std::size_t j, Wide t, bool last) {
    const auto& ch = ins[j].chunks();
    return static_cast<std::size_t>(
        std::partition_point(ch.begin(), ch.end(),
                             [&](const telemetry::ChunkInfo& c) {
                               return (last ? c.ts_last : c.ts_first) < t;
                             }) -
        ch.begin());
  };
  const auto below = [&](Wide t, bool last) {
    std::uint64_t n = 0;
    for (std::size_t j = 0; j < k; ++j) {
      n += prefix[j][first_chunk(j, t, last)];
    }
    return n;
  };
  // Record `rank` has timestamp t*: every chunk ending below t_hi lies
  // before it (so t* < t_hi), and every chunk starting below t_lo fits in
  // `rank` records (so t_lo <= t*).
  const Wide top = Wide{1} << 64;
  Wide lo = 0;
  Wide hi = top;
  while (lo < hi) {
    const Wide mid = lo + (hi - lo) / 2;
    if (below(mid, true) > rank) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  const Wide t_hi = lo;
  lo = 0;
  hi = top;
  while (lo < hi) {
    const Wide mid = lo + (hi - lo + 1) / 2;
    if (below(mid, false) <= rank) {
      lo = mid;
    } else {
      hi = mid - 1;
    }
  }
  const Wide t_lo = lo;

  // Decode the candidates: chunks of input j in [first[j], stop[j]).
  Cut cut;
  cut.before.resize(k);
  std::vector<std::size_t> first(k);
  std::vector<std::vector<trace::Record>> cand(k);
  std::vector<std::vector<std::size_t>> damaged(k);
  std::vector<char> ordered(k, 1);
  std::uint64_t skipped = 0;
  for (std::size_t j = 0; j < k; ++j) {
    first[j] = first_chunk(j, t_lo, true);
    skipped += prefix[j][first[j]];
  }
  if (skipped > rank) cut.ok = false;
  exec::parallel_for(pool, k, [&](std::size_t j) {
    const std::size_t stop = first_chunk(j, t_hi, false);
    std::vector<trace::Record> recs;
    for (std::size_t c = first[j]; c < stop; ++c) {
      if (prefix[j][c + 1] == prefix[j][c]) continue;  // known damaged
      if (!ins[j].decode(c, recs)) {
        damaged[j].push_back(c);
        continue;
      }
      if (recs.size() != ins[j].chunks()[c].records) ordered[j] = 0;
      cand[j].insert(cand[j].end(), recs.begin(), recs.end());
    }
    if (!std::is_sorted(cand[j].begin(), cand[j].end(), ts_node_less)) {
      ordered[j] = 0;
    }
  });
  std::uint64_t total = 0;
  for (std::size_t j = 0; j < k; ++j) {
    for (const std::size_t c : damaged[j]) cut.damaged.emplace_back(j, c);
    if (!ordered[j]) cut.ok = false;
    total += cand[j].size();
  }
  if (!cut.damaged.empty() || !cut.ok) return cut;
  const std::uint64_t want = rank - skipped;
  if (want >= total) {
    cut.ok = false;
    return cut;
  }

  // The smallest key K with more than `want` candidates at or below it is
  // the key of merged record `rank`. Keys carry their input, so only
  // input K.input holds records equal to K, and it takes the remainder.
  const auto at_most = [&](std::size_t j, MergeKey key) {
    const auto& v = cand[j];
    return static_cast<std::uint64_t>(
        std::upper_bound(v.begin(), v.end(), key,
                         [j](MergeKey x, const trace::Record& r) {
                           return x < merge_key(r.timestamp, r.node, j);
                         }) -
        v.begin());
  };
  MergeKey klo = 0;
  MergeKey khi = kExhaustedKey;
  while (klo < khi) {
    const MergeKey mid = klo + (khi - klo) / 2;
    std::uint64_t n = 0;
    for (std::size_t j = 0; j < k; ++j) n += at_most(j, mid);
    if (n > want) {
      khi = mid;
    } else {
      klo = mid + 1;
    }
  }
  const auto owner = static_cast<std::size_t>(klo & 0xFFFFFFFFu);
  std::uint64_t taken = 0;
  for (std::size_t j = 0; j < k; ++j) {
    cut.before[j] = klo == 0 ? 0 : at_most(j, klo - 1);
    taken += cut.before[j];
  }
  cut.before[owner] += want - taken;
  for (std::size_t j = 0; j < k; ++j) cut.before[j] += prefix[j][first[j]];
  return cut;
}

/// Where record `n` of input j (counted by `prefix`) lies. Chunks counted
/// as empty go to the part before the position.
InputPos position(const std::vector<std::uint64_t>& prefix, std::uint64_t n) {
  const auto c = static_cast<std::size_t>(
      std::upper_bound(prefix.begin(), prefix.end(), n) - prefix.begin() - 1);
  if (c + 1 >= prefix.size()) return {c, 0};
  return {c, static_cast<std::size_t>(n - prefix[c])};
}

/// Whether the last record of chunk c - 1 sorts no later than the first of
/// chunk c. The index shows timestamps only, so a multi-node input needs
/// the records when the two timestamps tie.
bool boundary_ordered(const MergeInput& in, std::size_t c) {
  const auto& ch = in.chunks();
  if (in.stamp || ch[c - 1].ts_last != ch[c].ts_first) return true;
  std::vector<trace::Record> before;
  std::vector<trace::Record> after;
  return in.decode(c - 1, before) && in.decode(c, after) &&
         !before.empty() && !after.empty() &&
         !ts_node_less(after.front(), before.back());
}

/// Cut the merge into at most `workers` parts at output ranks that are
/// multiples of `per_chunk`, searching on `pool`. The cut search holds
/// only when every input is non-decreasing by (ts, node); whatever it can
/// see against that (the chunk index, the chunks it decodes) gives the
/// one-part plan, and the parts check the rest as they decode.
MergePlan plan_merge(const std::vector<MergeInput>& ins,
                     std::uint32_t per_chunk, std::size_t workers,
                     exec::ThreadPool& pool) {
  const std::size_t k = ins.size();
  if (workers <= 1) return whole_plan(ins);
  Prefix prefix(k);
  for (std::size_t j = 0; j < k; ++j) {
    const auto& ch = ins[j].chunks();
    prefix[j].assign(ch.size() + 1, 0);
    for (std::size_t c = 0; c < ch.size(); ++c) {
      if (ch[c].ts_first > ch[c].ts_last ||
          (c > 0 && ch[c - 1].ts_last > ch[c].ts_first)) {
        return whole_plan(ins);
      }
      prefix[j][c + 1] = prefix[j][c] + ch[c].records;
    }
  }
  for (;;) {
    std::uint64_t total = 0;
    for (const auto& p : prefix) total += p.back();
    const std::uint64_t out_chunks = (total + per_chunk - 1) / per_chunk;
    const std::size_t parts =
        static_cast<std::size_t>(std::min<std::uint64_t>(workers, out_chunks));
    if (parts <= 1) return whole_plan(ins);
    MergePlan plan = whole_plan(ins);
    plan.bounds.resize(parts + 1);
    plan.ranks.assign(parts + 1, total);
    plan.ranks[0] = 0;
    plan.bounds[parts] = plan.bounds[1];
    // The cuts search side by side, and each spreads its decodes over
    // the same pool, so the plan never runs more than `workers` threads.
    std::vector<Cut> cuts(parts - 1);
    exec::parallel_for(pool, parts - 1, [&](std::size_t i) {
      plan.ranks[i + 1] = out_chunks * (i + 1) / parts * per_chunk;
      cuts[i] = find_cut(ins, prefix, plan.ranks[i + 1], pool);
    });
    std::vector<std::pair<std::size_t, std::size_t>> damaged;
    for (std::size_t p = 1; p < parts; ++p) {
      const Cut& cut = cuts[p - 1];
      if (!cut.ok) return whole_plan(ins);
      damaged.insert(damaged.end(), cut.damaged.begin(), cut.damaged.end());
      if (!damaged.empty()) continue;
      plan.bounds[p].resize(k);
      for (std::size_t j = 0; j < k; ++j) {
        const InputPos at = position(prefix[j], cut.before[j]);
        if (at.offset == 0 && at.chunk > 0 &&
            at.chunk < ins[j].chunks().size() &&
            !boundary_ordered(ins[j], at.chunk)) {
          return whole_plan(ins);
        }
        plan.bounds[p][j] = at;
      }
    }
    if (damaged.empty()) return plan;
    // A damaged candidate holds none of the records the index promised:
    // count it as empty and search again.
    std::sort(damaged.begin(), damaged.end());
    damaged.erase(std::unique(damaged.begin(), damaged.end()), damaged.end());
    for (const auto& [j, c] : damaged) {
      const std::uint64_t lost = prefix[j][c + 1] - prefix[j][c];
      for (std::size_t i = c + 1; i < prefix[j].size(); ++i) {
        prefix[j][i] -= lost;
      }
    }
  }
}

/// The output of a multi-part merge. Parts frame their chunks in memory;
/// a part's chunks reach the file once every earlier part's have. The
/// head part (every earlier part written) writes as it goes, a later one
/// holds its chunks until it becomes the head or finishes.
class PartWriter {
 public:
  PartWriter(telemetry::EsstWriter& out, std::size_t parts)
      : out_(out), held_(parts), done_(parts, 0) {}

  /// Part p's writer holds framed chunks: write them, or hold them.
  void deliver(std::size_t p, telemetry::EsstWriter& w) {
    if (head_.load(std::memory_order_acquire) != p) {
      held_[p].push_back(w.take_chunks());
      return;
    }
    std::lock_guard<std::mutex> lock(mu_);
    write_held(p);
    out_.append_chunks(w.take_chunks());
  }

  /// Part p is done: write every finished part from the head on.
  void finish(std::size_t p, telemetry::EsstWriter& w) {
    w.finish();
    std::lock_guard<std::mutex> lock(mu_);
    held_[p].push_back(w.take_chunks());
    done_[p] = 1;
    std::size_t h = head_.load(std::memory_order_relaxed);
    for (; h < done_.size() && done_[h] != 0; ++h) write_held(h);
    head_.store(h, std::memory_order_release);
  }

 private:
  void write_held(std::size_t p) {
    for (const auto& c : held_[p]) out_.append_chunks(c);
    held_[p] = {};
  }

  telemetry::EsstWriter& out_;
  std::mutex mu_;
  std::atomic<std::size_t> head_{0};
  std::vector<std::vector<telemetry::FramedChunks>> held_;  // per part
  std::vector<char> done_;  // guarded by mu_
};

/// Run `plan` into `out`. False when a part saw its inputs break the cut
/// search's premise (out of order, or fewer records than the index
/// promised before a cut): the bytes written are then not the merge.
bool run_plan(const std::vector<MergeInput>& ins, const MergePlan& plan,
              const telemetry::EsstMeta& meta, exec::ThreadPool& pool,
              telemetry::EsstWriter& out,
              std::vector<std::pair<std::size_t, std::size_t>>& damaged) {
  const std::size_t parts = plan.parts();
  std::vector<PartReport> reports(parts);
  if (parts == 1) {
    reports[0] = merge_part(ins, plan.bounds[0].data(), plan.bounds[1].data(),
                            out, [] {}, nullptr);
  } else {
    PartWriter writer(out, parts);
    std::atomic<bool> abort{false};
    exec::parallel_for(pool, parts, [&](std::size_t p) {
      telemetry::EsstWriter w(meta);
      reports[p] = merge_part(ins, plan.bounds[p].data(),
                              plan.bounds[p + 1].data(), w,
                              [&] { writer.deliver(p, w); }, &abort);
      if (!abort.load()) writer.finish(p, w);
    });
    if (abort.load()) return false;
    for (std::size_t p = 0; p + 1 < parts; ++p) {
      if (reports[p].records != plan.ranks[p + 1] - plan.ranks[p]) {
        return false;
      }
    }
  }
  for (const auto& r : reports) {
    damaged.insert(damaged.end(), r.damaged.begin(), r.damaged.end());
  }
  return true;
}

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

  MergeResult result;
  result.inputs = inputs.size();
  std::uint64_t capture_dropped = 0;
  std::vector<MergeInput> ins(inputs.size());
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    auto& in = ins[i];
    in.view = std::make_unique<telemetry::EsstView>(inputs[i]);
    in.stamp = !in.view->meta().multi_node;
    in.stamp_node = in.view->meta().node_id;
    capture_dropped += in.view->capture_dropped();
    result.duration = std::max(result.duration, in.view->duration());
  }

  // The merged file: format v2 (every record carries its node), header
  // metadata from the first input, node id -1 = "the cluster" (the same
  // convention cluster::Cluster uses for its merged TraceSet).
  telemetry::EsstMeta meta = ins.front().view->meta();
  meta.node_id = -1;
  meta.multi_node = true;
  meta.records_per_chunk = std::max<std::uint32_t>(meta.records_per_chunk, 1);

  // One pool for the whole merge: `workers - 1` threads beside this one
  // run the cut searches and the parts.
  exec::ThreadPool pool(workers - 1);
  MergePlan plan = plan_merge(ins, meta.records_per_chunk, workers, pool);
  for (;;) {
    std::ofstream out_file(out_path, std::ios::binary | std::ios::trunc);
    if (!out_file) throw std::runtime_error("cannot open " + out_path);
    telemetry::EsstWriter writer(out_file, meta, out_path);
    std::vector<std::pair<std::size_t, std::size_t>> damaged;
    if (!run_plan(ins, plan, meta, pool, writer, damaged)) {
      // The inputs broke the cuts' premise: merge again as one part,
      // from the start of the file.
      plan = whole_plan(ins);
      continue;
    }
    // Each input's losses, every damaged chunk once however many parts
    // decoded it, plus those its salvage scan already discarded.
    std::sort(damaged.begin(), damaged.end());
    damaged.erase(std::unique(damaged.begin(), damaged.end()), damaged.end());
    for (const auto& [j, c] : damaged) {
      result.dropped_records += ins[j].chunks()[c].records;
    }
    for (const auto& in : ins) {
      result.dropped_records += in.view->scan_losses().records_lost;
    }
    result.dropped_records += capture_dropped;
    result.parts = plan.parts();
    result.records_written = writer.records_written();
    writer.set_dropped_records(result.dropped_records);
    writer.finish(result.duration);
    if (!out_file) throw std::runtime_error("write failed: " + out_path);
    return result;
  }
}

}  // namespace ess::analysis
