#include "exec/thread_pool.hpp"

#if defined(__linux__)
#include <sched.h>
#endif

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <exception>
#include <memory>
#include <string>
#include <utility>

namespace ess::exec {

ThreadPool::ThreadPool(std::size_t workers) {
  threads_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    threads_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& t : threads_) t.join();
}

void ThreadPool::submit(std::function<void()> job) {
  if (threads_.empty()) {
    job();  // inline serial mode: same API, no threads involved
    return;
  }
  {
    std::unique_lock<std::mutex> lock(mu_);
    queue_.push_back(std::move(job));
  }
  work_cv_.notify_one();
}

void ThreadPool::wait_idle() {
  if (threads_.empty()) return;
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] { return queue_.empty() && running_ == 0; });
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ and drained
      job = std::move(queue_.front());
      queue_.pop_front();
      ++running_;
    }
    job();
    {
      std::unique_lock<std::mutex> lock(mu_);
      --running_;
      if (queue_.empty() && running_ == 0) idle_cv_.notify_all();
    }
  }
}

namespace {

/// One parallel_for call's shared state. Helper jobs hold it by shared_ptr:
/// one that starts after every index was claimed only touches `next`.
struct ForState {
  explicit ForState(std::size_t n) : n(n), errors(n) {}

  const std::size_t n;
  std::atomic<std::size_t> next{0};
  std::vector<std::exception_ptr> errors;  // slot i written by index i only
  std::mutex mu;
  std::condition_variable done_cv;
  std::size_t done = 0;  // guarded by mu

  /// Claim and run indices until none are left.
  void drain(const std::function<void(std::size_t)>& fn) {
    std::size_t ran = 0;
    for (std::size_t i; (i = next.fetch_add(1)) < n; ++ran) {
      try {
        fn(i);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    }
    if (ran == 0) return;
    std::lock_guard<std::mutex> lock(mu);
    done += ran;
    if (done == n) done_cv.notify_all();
  }
};

}  // namespace

void parallel_for(ThreadPool& pool, std::size_t n,
                  const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  auto state = std::make_shared<ForState>(n);
  // The caller drains too, so at most n - 1 helpers can find work. `fn`
  // outlives every claimed index: the caller returns only once all ran.
  const std::size_t helpers = std::min(pool.workers(), n - 1);
  for (std::size_t h = 0; h < helpers; ++h) {
    pool.submit([state, &fn] { state->drain(fn); });
  }
  state->drain(fn);
  {
    std::unique_lock<std::mutex> lock(state->mu);
    state->done_cv.wait(lock, [&] { return state->done == n; });
  }
  for (const auto& e : state->errors) {
    if (e) std::rethrow_exception(e);
  }
}

void parallel_for(std::size_t workers, std::size_t n,
                  const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  ThreadPool pool(std::min(std::max<std::size_t>(workers, 1), n) - 1);
  parallel_for(pool, n, fn);
}

std::optional<std::uint64_t> parse_digits(const std::string& text) {
  // Digits only: "-1", "4x", " 8" and "" all fail the same way instead of
  // whatever strtoull salvages; from_chars reports overflow past 2^64 - 1.
  if (text.empty() || text.front() < '0' || text.front() > '9') {
    return std::nullopt;
  }
  std::uint64_t v = 0;
  const char* const end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc() || stop != end) return std::nullopt;
  return v;
}

std::optional<double> parse_real(const std::string& text) {
  // The first character rules out a sign, whitespace, "inf" and "nan";
  // from_chars (general format: no "0x") must then consume every byte,
  // and reports a value out of double's range.
  if (text.empty() ||
      !((text.front() >= '0' && text.front() <= '9') || text.front() == '.')) {
    return std::nullopt;
  }
  double v = 0;
  const char* const end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc() || stop != end || !std::isfinite(v)) {
    return std::nullopt;
  }
  return v;
}

std::optional<std::size_t> parse_worker_count(const std::string& text) {
  const auto v = parse_digits(text);
  if (!v || *v > kMaxWorkers) return std::nullopt;  // a typo, not a request
  return static_cast<std::size_t>(*v);
}

std::size_t default_workers() {
  if (const char* v = std::getenv("ESS_JOBS")) {
    if (const auto n = parse_worker_count(v)) return *n;
  }
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<std::size_t>(n);
  }
#endif
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

std::size_t resolve_workers(std::size_t jobs) {
  return std::max<std::size_t>(jobs != 0 ? jobs : default_workers(), 1);
}

}  // namespace ess::exec
