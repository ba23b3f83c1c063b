// A fixed-size thread pool for running independent experiments in parallel.
//
// The simulator itself is single-threaded by design (one virtual clock per
// node/cluster, FIFO event order — see sim::Engine); what parallelizes is
// the *experiment matrix*: every figure, ablation, and fault-matrix cell is
// a self-contained job with its own Engine, Study, and FaultPlan, sharing
// nothing but immutable configuration. The pool runs those jobs across OS
// threads; determinism is preserved because no job can observe another.
//
// `workers == 0` degenerates to inline execution on the submitting thread —
// the serial reference path goes through the exact same code.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

namespace ess::exec {

class ThreadPool {
 public:
  /// Spawns `workers` threads (0 = run every job inline in submit()).
  explicit ThreadPool(std::size_t workers);

  /// Joins after draining the queue; submitted jobs all run.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t workers() const { return threads_.size(); }

  /// Enqueue a job. Jobs must not throw (wrap and capture instead — see
  /// parallel_for, which stores exceptions per index and rethrows the
  /// lowest).
  void submit(std::function<void()> job);

  /// Block until every submitted job has finished.
  void wait_idle();

 private:
  void worker_loop();

  std::vector<std::thread> threads_;
  std::deque<std::function<void()>> queue_;
  std::mutex mu_;
  std::condition_variable work_cv_;   // workers wait for jobs
  std::condition_variable idle_cv_;   // wait_idle waits for quiescence
  std::size_t running_ = 0;
  bool stop_ = false;
};

/// Run fn(0) .. fn(n - 1), each exactly once, across the pool's workers
/// and the calling thread; returns when every index has finished. Indices
/// are claimed dynamically, so a fn whose effects depend only on its index
/// gives the same result at any worker count. The caller never waits on a
/// queued job, only on indices already running, so it may itself be a pool
/// worker. If any fn throws, every index still runs and the exception of
/// the lowest throwing index is rethrown.
void parallel_for(ThreadPool& pool, std::size_t n,
                  const std::function<void(std::size_t)>& fn);

/// parallel_for on a one-shot pool of max(workers, 1) - 1 threads (never
/// more than n - 1) plus the calling thread, so `workers` threads run the
/// loop in all and 0 or 1 runs every index on the caller: the serial
/// reference through the same code. Callers write into pre-sized
/// per-index slots, so results come back in index order.
void parallel_for(std::size_t workers, std::size_t n,
                  const std::function<void(std::size_t)>& fn);

/// Upper bound a worker count may take: far above any real machine, low
/// enough that a mistyped value cannot ask for a million threads.
inline constexpr std::size_t kMaxWorkers = 4096;

/// Strict parse of a decimal count: digits only — no sign, whitespace or
/// trailing junk — and at most 2^64 - 1. Anything else is nullopt. Every
/// numeric command-line flag and environment override goes through it.
std::optional<std::uint64_t> parse_digits(const std::string& text);

/// Strict parse of a non-negative real: a plain decimal number — digits
/// with at most one '.', then an optional exponent ("2", "0.5", ".5",
/// "1e-3") — that is finite. No sign, whitespace, trailing junk, hex,
/// "inf" or "nan". Anything else is nullopt. Every real-valued
/// command-line flag goes through it.
std::optional<double> parse_real(const std::string& text);

/// Strict parse of a worker count (ESS_JOBS, esstrace's --jobs):
/// parse_digits, at most kMaxWorkers. Anything else is nullopt.
std::optional<std::size_t> parse_worker_count(const std::string& text);

/// Worker-count default for experiment fan-out: the ESS_JOBS environment
/// variable when it parses (0 allowed: inline serial), else the number of
/// CPUs this process may run on (its affinity mask, so a pinned container
/// is not oversubscribed), else the hardware thread count, else 1.
std::size_t default_workers();

/// The one worker-count rule behind every `jobs`/`--jobs` value: 0 means
/// default_workers(), anything else is taken as given, and the result is
/// at least 1.
std::size_t resolve_workers(std::size_t jobs);

}  // namespace ess::exec
