#include "exec/thread_pool.hpp"

#include <gtest/gtest.h>
#include <sched.h>

#include <atomic>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace ess::exec {
namespace {

TEST(ThreadPool, ZeroWorkersRunsInlineInSubmit) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.workers(), 0u);
  int ran = 0;
  pool.submit([&] { ++ran; });
  // Inline execution: the job already ran, no wait needed.
  EXPECT_EQ(ran, 1);
  pool.wait_idle();
  EXPECT_EQ(ran, 1);
}

TEST(ThreadPool, RunsEveryJobAcrossWorkers) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) pool.submit([&] { ++count; });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, DestructorDrainsTheQueue) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) pool.submit([&] { ++count; });
  }
  EXPECT_EQ(count.load(), 50);
}

TEST(ThreadPool, WaitIdleIsReusable) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  pool.submit([&] { ++count; });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 1);
  pool.submit([&] { ++count; });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 2);
}

TEST(DefaultWorkers, HonorsEssJobs) {
  // resolve_workers: 0 takes the default, explicit counts pass through,
  // and the result is never 0.
  setenv("ESS_JOBS", "3", 1);
  EXPECT_EQ(default_workers(), 3u);
  EXPECT_EQ(resolve_workers(0), 3u);
  EXPECT_EQ(resolve_workers(5), 5u);
  setenv("ESS_JOBS", "0", 1);
  EXPECT_EQ(default_workers(), 0u);
  EXPECT_EQ(resolve_workers(0), 1u);
  unsetenv("ESS_JOBS");
  EXPECT_GE(default_workers(), 1u);
  EXPECT_EQ(resolve_workers(0), default_workers());
}

TEST(DefaultWorkers, CountsTheAffinityMaskNotTheHost) {
  unsetenv("ESS_JOBS");
  cpu_set_t set;
  CPU_ZERO(&set);
  ASSERT_EQ(sched_getaffinity(0, sizeof(set), &set), 0);
  EXPECT_EQ(default_workers(), static_cast<std::size_t>(CPU_COUNT(&set)));

  // Pin this thread to one CPU: a pinned process must get one worker.
  int first = 0;
  while (!CPU_ISSET(first, &set)) ++first;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(first, &one);
  ASSERT_EQ(sched_setaffinity(0, sizeof(one), &one), 0);
  EXPECT_EQ(default_workers(), 1u);
  ASSERT_EQ(sched_setaffinity(0, sizeof(set), &set), 0);
}

TEST(DefaultWorkers, IgnoresMalformedEssJobs) {
  unsetenv("ESS_JOBS");
  const std::size_t fallback = default_workers();
  for (const char* bad : {"4x", " 4", "4 ", "-1", "+2", "", "0x4", "1e2",
                          "4097", "99999999999999999999"}) {
    setenv("ESS_JOBS", bad, 1);
    EXPECT_EQ(default_workers(), fallback) << "'" << bad << "'";
  }
  setenv("ESS_JOBS", "007", 1);  // leading zeros are still decimal
  EXPECT_EQ(default_workers(), 7u);
  unsetenv("ESS_JOBS");
}

TEST(ParseWorkerCount, DigitsOnlyUpToTheCap) {
  // The one parser behind ESS_JOBS and esstrace's --jobs/--shards; the
  // ParseJobs tests in tests/tools/esstrace_cli_test.cpp hold its full
  // list of malformed and oversize inputs.
  EXPECT_EQ(parse_worker_count("0"), 0u);
  EXPECT_EQ(parse_worker_count("12"), 12u);
  EXPECT_EQ(parse_worker_count(std::to_string(kMaxWorkers)), kMaxWorkers);
  EXPECT_FALSE(parse_worker_count(std::to_string(kMaxWorkers + 1)));
  EXPECT_FALSE(parse_worker_count("4x"));
  EXPECT_FALSE(parse_worker_count(""));
}

TEST(ParallelFor, RunsEveryIndexOnceAtAnyWorkerCount) {
  for (const std::size_t workers : {0u, 1u, 3u, 8u}) {
    ThreadPool pool(workers);
    for (const std::size_t n : {0u, 1u, 5u, 64u, 1000u}) {
      std::vector<std::atomic<int>> hits(n);
      parallel_for(pool, n, [&](std::size_t i) { ++hits[i]; });
      // The one-shot form: `workers` threads in all, the caller included.
      parallel_for(workers, n, [&](std::size_t i) { ++hits[i]; });
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(hits[i].load(), 2) << workers << " workers, index " << i;
      }
    }
  }
  // 0 or 1 worker is the calling thread alone: the serial reference.
  const auto caller = std::this_thread::get_id();
  for (const std::size_t workers : {0u, 1u}) {
    std::atomic<int> elsewhere{0};
    parallel_for(workers, 8, [&](std::size_t) {
      if (std::this_thread::get_id() != caller) ++elsewhere;
    });
    EXPECT_EQ(elsewhere.load(), 0) << workers << " workers";
  }
}

TEST(ParallelFor, DoesNotWaitBehindBusyWorkers) {
  // The only worker is blocked until the loop is done: the caller must run
  // every index itself rather than wait for a helper that cannot start.
  ThreadPool pool(1);
  std::atomic<bool> release{false};
  pool.submit([&] {
    while (!release.load()) std::this_thread::yield();
  });
  std::atomic<int> ran{0};
  parallel_for(pool, 16, [&](std::size_t) { ++ran; });
  EXPECT_EQ(ran.load(), 16);
  release = true;
  pool.wait_idle();
}

TEST(ParallelFor, RethrowsTheLowestFailingIndexAfterAllRan) {
  ThreadPool pool(3);
  std::atomic<int> ran{0};
  try {
    parallel_for(pool, 32, [&](std::size_t i) {
      ++ran;
      if (i == 7 || i == 20) throw std::runtime_error(std::to_string(i));
    });
    FAIL() << "expected a throw";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "7");
  }
  EXPECT_EQ(ran.load(), 32);
}

}  // namespace
}  // namespace ess::exec
