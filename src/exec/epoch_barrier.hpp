// EpochBarrier: persistent worker threads released in epochs.
//
// ThreadPool's submit()/wait_idle() cycle pays a queue lock, a
// std::function allocation, and two condvar round-trips per job — fine
// for coarse experiment fan-out, ruinous for a PDES window scheduler that
// synchronizes thousands of sub-millisecond windows per run. EpochBarrier
// keeps the workers parked on one word: the owner publishes a job count
// and a callback, bumps the epoch word, and wakes exactly the workers the
// epoch can use; everyone (owner included) then pulls job indices off a
// shared atomic ticket counter until it runs dry. On Linux the parking is
// raw futex waits — an epoch in which the owner drains every ticket
// itself costs two uncontended syscalls and no context switch at all —
// with a mutex/condvar fallback elsewhere.
//
// Exception semantics mirror exec::parallel_for's convention: every job
// still runs, each failure is captured in its slot, and run() rethrows
// the lowest-index exception once the epoch has quiesced. With zero
// workers (or a single job) run() degenerates to calling fn inline on the
// owner, where exceptions propagate directly — the same split the old
// inline-vs-pooled window path had.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <thread>
#include <vector>

#if !defined(__linux__)
#include <condition_variable>
#include <mutex>
#endif

namespace ess::exec {

class EpochBarrier {
 public:
  /// Spawns `workers` persistent threads (0 = every run() is inline).
  explicit EpochBarrier(std::size_t workers);

  /// Releases a final epoch telling every worker to exit, then joins.
  /// Must not be called while a run() is in flight (single-owner API).
  ~EpochBarrier();

  EpochBarrier(const EpochBarrier&) = delete;
  EpochBarrier& operator=(const EpochBarrier&) = delete;

  std::size_t workers() const { return threads_.size(); }

  /// Run `fn(ctx, i)` for every i in [0, jobs), spread over the owner and
  /// the woken workers; returns once all jobs finished. Rethrows the
  /// lowest-index captured exception, if any. Owner-only, not reentrant.
  void run(std::size_t jobs, void (*fn)(void*, std::size_t), void* ctx);

  /// Convenience adapter for lambdas: no allocation, one indirect call
  /// per job (jobs here are whole simulation windows or injection
  /// batches, never per-event work).
  template <typename Fn>
  void run(std::size_t jobs, Fn&& fn) {
    auto trampoline = [](void* c, std::size_t i) {
      (*static_cast<std::remove_reference_t<Fn>*>(c))(i);
    };
    run(jobs, +trampoline, &fn);
  }

 private:
  void worker_loop();
  void pull();  // take tickets until the epoch's counter runs dry

  // Parking primitives: futex on the word itself under Linux, one shared
  // mutex/condvar pair elsewhere. `park` returns on any change of `w`
  // away from `seen` (spurious returns allowed — all loops revalidate).
  void park(std::atomic<std::uint32_t>& w, std::uint32_t seen);
  void wake(std::atomic<std::uint32_t>& w, int n);

  // Epoch word: 2*epoch + (1 if open). Workers may only enter an odd
  // (open) epoch they have not processed yet, and must re-check it after
  // publishing themselves in `active_` — the seq_cst handshake that lets
  // the owner close an epoch knowing no late worker can still slip into
  // the ticket counter while the next epoch's state is being written.
  std::atomic<std::uint32_t> word_{0};
  std::atomic<std::uint32_t> sig_{0};     // owner's wait word (progress ticks)
  std::atomic<std::uint64_t> next_{0};    // ticket counter
  std::atomic<std::uint64_t> done_{0};    // finished-job count
  std::atomic<std::uint32_t> active_{0};  // workers inside pull()
  std::atomic<bool> stop_{false};

  // Per-epoch state, written by the owner strictly before the epoch word
  // opens and never touched by workers outside an open epoch.
  std::size_t total_ = 0;
  void (*fn_)(void*, std::size_t) = nullptr;
  void* ctx_ = nullptr;
  std::vector<std::exception_ptr> errs_;

#if !defined(__linux__)
  std::mutex mu_;
  std::condition_variable cv_;
#endif

  std::vector<std::thread> threads_;
};

}  // namespace ess::exec
