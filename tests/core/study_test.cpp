#include "core/study.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <latch>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/numerics_cache.hpp"
#include "fast_config.hpp"
#include "workload/synthetic.hpp"

namespace ess::core {
namespace {

TEST(Study, ArtifactsCachedAcrossCalls) {
  Study study(test::fast_study_config());
  const auto* first = &study.artifacts();
  const auto* second = &study.artifacts();
  EXPECT_EQ(first, second);
  EXPECT_GT(first->ppm.native_flops, 0u);
  EXPECT_GT(first->wavelet.native_flops, 0u);
  EXPECT_GT(first->nbody.total_interactions, 0u);
}

TEST(Study, BaselineIsAllWrites) {
  Study study(test::fast_study_config());
  const auto r = study.run_baseline();
  EXPECT_TRUE(r.completed);
  const auto mix = analysis::summarize(r.trace).mix;
  EXPECT_GT(mix.total, 0u);
  EXPECT_EQ(mix.reads, 0u);
  EXPECT_NEAR(to_seconds(r.trace.duration()), 120.0, 1.0);
}

TEST(Study, SingleRunsComplete) {
  Study study(test::fast_study_config());
  for (const auto kind :
       {AppKind::kPpm, AppKind::kWavelet, AppKind::kNBody}) {
    const auto r = study.run_single(kind);
    EXPECT_TRUE(r.completed) << to_string(kind);
    EXPECT_GT(r.trace.size(), 0u) << to_string(kind);
  }
}

TEST(Study, CombinedUsesEnlargedBuffering) {
  auto cfg = test::fast_study_config();
  cfg.combined_coalesce_blocks = 32;
  Study study(cfg);
  const auto r = study.run_combined();
  EXPECT_TRUE(r.completed);
  std::uint32_t max_bytes = 0;
  for (const auto& rec : r.trace.records()) {
    max_bytes = std::max(max_bytes, rec.size_bytes);
  }
  EXPECT_LE(max_bytes, 32u * 1024);
}

TEST(Study, DeterministicForSameSeed) {
  auto cfg = test::fast_study_config();
  cfg.baseline_duration = sec(60);
  Study a(cfg), b(cfg);
  const auto ta = a.run_baseline().trace;
  const auto tb = b.run_baseline().trace;
  ASSERT_EQ(ta.size(), tb.size());
  for (std::size_t i = 0; i < ta.size(); ++i) {
    EXPECT_EQ(ta.records()[i], tb.records()[i]);
  }
}

TEST(Study, SeedChangesTrace) {
  auto cfg = test::fast_study_config();
  cfg.baseline_duration = sec(60);
  Study a(cfg);
  cfg.seed = 999;
  cfg.node.seed = 999;
  Study b(cfg);
  const auto ta = a.run_baseline().trace;
  const auto tb = b.run_baseline().trace;
  EXPECT_NE(ta.size(), tb.size());
}

TEST(Study, CustomWorkloadRuns) {
  Study study(test::fast_study_config());
  auto synth = workload::sequential_write("logger", "/data/synth.log",
                                          256 * 1024, 8 * 1024, msec(200));
  const auto r = study.run_custom("Synthetic", {std::move(synth)});
  EXPECT_TRUE(r.completed);
  EXPECT_GT(r.trace.size(), 0u);
  const auto mix = analysis::summarize(r.trace).mix;
  EXPECT_GT(mix.write_pct, 90.0);  // a pure logger, plus system writes
}

TEST(Study, CustomFixedDurationRun) {
  Study study(test::fast_study_config());
  auto synth = workload::sequential_write("logger", "/data/synth.log",
                                          10 * 1024 * 1024, 8 * 1024,
                                          sec(10));
  const auto r = study.run_custom("Cut", {std::move(synth)}, sec(30));
  EXPECT_FALSE(r.completed);  // far from done in 30 s
}

TEST(Study, Table1HasExpectedRows) {
  Study study(test::fast_study_config());
  const auto rows = study.table1(true);
  ASSERT_EQ(rows.size(), 5u);
  EXPECT_EQ(rows[0].experiment, "Baseline");
  EXPECT_EQ(rows[1].experiment, "PPM");
  EXPECT_EQ(rows[2].experiment, "Wavelet");
  EXPECT_EQ(rows[3].experiment, "N-Body");
  EXPECT_EQ(rows[4].experiment, "Combined");
}

// ---- the phase-A numerics cache ----

/// Phase A as computed before the cache existed: the three run_* entry
/// points in turn on one Rng.
Artifacts uncached_artifacts(const StudyConfig& cfg) {
  Artifacts a;
  Rng rng(cfg.seed);
  const double mflops = cfg.node.cpu_mflops;
  a.ppm = apps::ppm::run_ppm(cfg.ppm, mflops, rng);
  a.wavelet = apps::wavelet::run_wavelet(cfg.wavelet, mflops, rng);
  a.nbody = apps::nbody::run_nbody(cfg.nbody, mflops, rng);
  return a;
}

void expect_same_numbers(const Artifacts& x, const Artifacts& y) {
  EXPECT_EQ(x.ppm.final_mass, y.ppm.final_mass);
  EXPECT_EQ(x.ppm.final_energy, y.ppm.final_energy);
  EXPECT_EQ(x.ppm.max_density, y.ppm.max_density);
  EXPECT_EQ(x.ppm.native_flops, y.ppm.native_flops);
  EXPECT_EQ(x.ppm.modelled_compute, y.ppm.modelled_compute);
  EXPECT_EQ(x.wavelet.input_energy, y.wavelet.input_energy);
  EXPECT_EQ(x.wavelet.haar_energy, y.wavelet.haar_energy);
  EXPECT_EQ(x.wavelet.d4_energy, y.wavelet.d4_energy);
  EXPECT_EQ(x.wavelet.compression_ratio, y.wavelet.compression_ratio);
  EXPECT_EQ(x.wavelet.bits_per_pixel, y.wavelet.bits_per_pixel);
  EXPECT_EQ(x.wavelet.psnr_db, y.wavelet.psnr_db);
  EXPECT_EQ(x.wavelet.best_shift_row, y.wavelet.best_shift_row);
  EXPECT_EQ(x.wavelet.best_shift_col, y.wavelet.best_shift_col);
  EXPECT_EQ(x.wavelet.native_flops, y.wavelet.native_flops);
  EXPECT_EQ(x.wavelet.modelled_compute, y.wavelet.modelled_compute);
  EXPECT_EQ(x.nbody.total_interactions, y.nbody.total_interactions);
  EXPECT_EQ(x.nbody.final_kinetic, y.nbody.final_kinetic);
  EXPECT_EQ(x.nbody.momentum_drift, y.nbody.momentum_drift);
  EXPECT_EQ(x.nbody.native_flops, y.nbody.native_flops);
  EXPECT_EQ(x.nbody.modelled_compute, y.nbody.modelled_compute);
}

void expect_same_artifacts(const Artifacts& x, const Artifacts& y) {
  expect_same_numbers(x, y);
  EXPECT_TRUE(x.ppm.trace == y.ppm.trace);
  EXPECT_TRUE(x.wavelet.trace == y.wavelet.trace);
  EXPECT_TRUE(x.nbody.trace == y.nbody.trace);
}

/// A fast config whose three numerics keys no earlier call in this process
/// used, so the cache counts below start from an empty entry even when
/// every test (or a repeat of one) runs in one process.
StudyConfig fresh_key_config() {
  static std::atomic<int> next_salt{1};
  const int salt = next_salt++;
  auto cfg = test::fast_study_config();
  cfg.ppm.nx += 2 * salt;
  cfg.wavelet.seed += static_cast<std::uint64_t>(salt);
  cfg.nbody.seed += static_cast<std::uint64_t>(salt);
  return cfg;
}

CacheCounts operator-(const CacheCounts& a, const CacheCounts& b) {
  return {a.computed - b.computed, a.hit - b.hit, a.waited - b.waited};
}

TEST(NumericsCache, CachedArtifactsEqualAFreshComputation) {
  const auto cfg = test::fast_study_config();
  Study study(cfg);
  expect_same_artifacts(study.artifacts(), uncached_artifacts(cfg));

  // A trace-side field: same numerics key, a different trace.
  auto chk = cfg;
  chk.ppm.checkpoint_every = 2;
  const auto before = numerics_cache_stats();
  Study variant(chk);
  const Artifacts& v = variant.artifacts();
  const auto d = numerics_cache_stats().ppm - before.ppm;
  EXPECT_EQ(d.computed, 0u);
  EXPECT_EQ(d.hit, 1u);
  expect_same_artifacts(v, uncached_artifacts(chk));
  EXPECT_FALSE(v.ppm.trace == study.artifacts().ppm.trace);
  EXPECT_GT(v.ppm.trace.total_write_bytes(),
            study.artifacts().ppm.trace.total_write_bytes());
}

TEST(NumericsCache, ConcurrentStudiesComputeEachAppOnce) {
  const auto cfg = fresh_key_config();
  const auto before = numerics_cache_stats();
  constexpr int kThreads = 8;
  std::vector<Artifacts> got(kThreads);
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Study study(cfg);
      start.arrive_and_wait();
      got[t] = study.artifacts();
    });
  }
  for (auto& th : threads) th.join();

  const auto after = numerics_cache_stats();
  for (const auto& [a, b] : {std::pair{after.ppm, before.ppm},
                             std::pair{after.wavelet, before.wavelet},
                             std::pair{after.nbody, before.nbody}}) {
    const auto d = a - b;
    EXPECT_EQ(d.computed, 1u);
    EXPECT_EQ(d.hit + d.waited, kThreads - 1u);
  }
  for (int t = 1; t < kThreads; ++t) expect_same_artifacts(got[t], got[0]);
  expect_same_artifacts(got[0], uncached_artifacts(cfg));
}

TEST(NumericsCache, SeedsShareNumericsButNotTraces) {
  auto cfg = fresh_key_config();
  const auto before = numerics_cache_stats();
  Study a(cfg);
  cfg.seed += 1;
  Study b(cfg);
  const Artifacts& x = a.artifacts();
  const Artifacts& y = b.artifacts();
  const auto after = numerics_cache_stats();
  EXPECT_EQ((after.ppm - before.ppm).computed, 1u);
  EXPECT_EQ((after.wavelet - before.wavelet).computed, 1u);
  EXPECT_EQ((after.nbody - before.nbody).computed, 1u);
  EXPECT_EQ((after.nbody - before.nbody).hit, 1u);

  EXPECT_EQ(x.ppm.final_energy, y.ppm.final_energy);
  EXPECT_EQ(x.wavelet.psnr_db, y.wavelet.psnr_db);
  EXPECT_EQ(x.nbody.total_interactions, y.nbody.total_interactions);
  EXPECT_FALSE(x.ppm.trace == y.ppm.trace);
  EXPECT_FALSE(x.wavelet.trace == y.wavelet.trace);
  EXPECT_FALSE(x.nbody.trace == y.nbody.trace);
  expect_same_artifacts(y, uncached_artifacts(cfg));
}

TEST(NumericsCache, FailedFillReachesEveryWaiterAndIsDropped) {
  OnceCache<int, int> cache;
  auto owner = cache.claim(1);
  ASSERT_TRUE(owner.owns());
  constexpr int kWaiters = 7;
  std::atomic<int> failed{0};
  std::vector<std::thread> waiters;
  for (int t = 0; t < kWaiters; ++t) {
    waiters.emplace_back([&] {
      const auto c = cache.claim(1);
      EXPECT_FALSE(c.owns());
      try {
        c.get();
      } catch (const std::runtime_error& e) {
        if (std::string(e.what()) == "boom") ++failed;
      }
    });
  }
  // Throw only once every waiter holds the in-flight entry.
  while (cache.counts().waited < kWaiters) std::this_thread::yield();
  cache.fill(1, owner, []() -> int { throw std::runtime_error("boom"); });
  for (auto& th : waiters) th.join();
  EXPECT_EQ(failed.load(), kWaiters);
  EXPECT_THROW(owner.get(), std::runtime_error);

  // The failed entry is gone: the next claim computes again.
  auto retry = cache.claim(1);
  ASSERT_TRUE(retry.owns());
  cache.fill(1, retry, [] { return 42; });
  EXPECT_EQ(*retry.get(), 42);
  EXPECT_EQ(*cache.claim(1).get(), 42);
  EXPECT_EQ(cache.counts().computed, 2u);
  EXPECT_EQ(cache.counts().hit, 1u);
}

TEST(NumericsCache, FailingAppReachesEveryConcurrentStudy) {
  auto cfg = fresh_key_config();
  cfg.nbody.bodies = 0;  // the tree build rejects an empty system
  constexpr int kThreads = 8;
  std::atomic<int> failed{0};
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      Study study(cfg);
      start.arrive_and_wait();
      try {
        study.artifacts();
      } catch (const std::invalid_argument&) {
        ++failed;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failed.load(), kThreads);
  // The apps that succeeded stay cached.
  const auto before = numerics_cache_stats();
  Study retry(cfg);
  EXPECT_THROW(retry.artifacts(), std::invalid_argument);
  const auto after = numerics_cache_stats();
  EXPECT_EQ((after.ppm - before.ppm).hit, 1u);
  EXPECT_EQ((after.nbody - before.nbody).computed, 1u);
}

TEST(Study, AppKindNames) {
  EXPECT_EQ(to_string(AppKind::kPpm), "PPM");
  EXPECT_EQ(to_string(AppKind::kWavelet), "Wavelet");
  EXPECT_EQ(to_string(AppKind::kNBody), "N-Body");
}

}  // namespace
}  // namespace ess::core
