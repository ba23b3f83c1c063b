// The process-wide phase-A numerics cache.
//
// Phase A runs the three real applications. Their numerics — the PPM
// solver, the wavelet transforms and registration, the N-body tree code —
// read only a few fields of each app config and no Rng, so every Study
// whose configs agree on those fields would compute the same numbers. The
// cache computes each app's numerics at most once per process, keyed by
// its *NumericsInput (the exact fields the numerics function reads), and
// hands out immutable shared results. Each Study then builds its own
// OpTraces from them with its own seed and CPU speed; traces are never
// cached, so memory stays at a few KB per distinct key.
#pragma once

#include <chrono>
#include <cstdint>
#include <exception>
#include <future>
#include <map>
#include <memory>
#include <mutex>

#include "apps/nbody/nbody_app.hpp"
#include "apps/ppm/ppm_app.hpp"
#include "apps/wavelet/wavelet_app.hpp"

namespace ess::core {

struct StudyConfig;

/// How a cache's lookups were served.
struct CacheCounts {
  std::uint64_t computed = 0;  // claimed: this caller computes the value
  std::uint64_t hit = 0;       // the value was already there
  std::uint64_t waited = 0;    // another caller was computing it
};

/// A map whose values are computed once. claim() either finds the entry
/// (ready or in flight) or inserts it and makes the caller its owner; the
/// owner then calls fill(). Waiters block in Claim::get() until the value
/// or the fill's exception is published. A failed entry is dropped, so
/// the next claim of its key computes again.
template <typename Key, typename Value>
class OnceCache {
 public:
  using Ptr = std::shared_ptr<const Value>;

  class Claim {
   public:
    bool owns() const { return promise_ != nullptr; }
    /// Waits for the value; rethrows the exception of a failed fill.
    const Ptr& get() const { return future_.get(); }

   private:
    friend class OnceCache;
    std::shared_future<Ptr> future_;
    std::shared_ptr<std::promise<Ptr>> promise_;  // set for the owner only
  };

  Claim claim(const Key& key) {
    std::lock_guard<std::mutex> lock(mu_);
    Claim c;
    if (const auto it = entries_.find(key); it != entries_.end()) {
      c.future_ = it->second;
      const bool ready = c.future_.wait_for(std::chrono::seconds(0)) ==
                         std::future_status::ready;
      ++(ready ? counts_.hit : counts_.waited);
      return c;
    }
    c.promise_ = std::make_shared<std::promise<Ptr>>();
    c.future_ = c.promise_->get_future().share();
    entries_.emplace(key, c.future_);
    ++counts_.computed;
    return c;
  }

  /// Run `compute` (returning a Value) for an owned claim and publish its
  /// result. Never throws: an exception goes to every waiter instead.
  template <typename Compute>
  void fill(const Key& key, Claim& c, Compute&& compute) noexcept {
    try {
      c.promise_->set_value(std::make_shared<const Value>(compute()));
    } catch (...) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        entries_.erase(key);
      }
      c.promise_->set_exception(std::current_exception());
    }
  }

  CacheCounts counts() const {
    std::lock_guard<std::mutex> lock(mu_);
    return counts_;
  }

 private:
  mutable std::mutex mu_;
  std::map<Key, std::shared_future<Ptr>> entries_;
  CacheCounts counts_;
};

/// One Study's phase-A numerics, shared with every Study of equal keys.
struct AppNumerics {
  std::shared_ptr<const apps::ppm::PpmNumerics> ppm;
  std::shared_ptr<const apps::wavelet::WaveletNumerics> wavelet;
  std::shared_ptr<const apps::nbody::NBodyNumerics> nbody;
};

/// The numerics for cfg's three app configs. Entries no one has claimed
/// are computed here, concurrently on an exec::default_workers() pool:
/// PPM and wavelet as pool jobs, N-body on the calling thread; PPM's
/// sweeps and N-body's force pass run on the same pool. Entries in flight
/// elsewhere are waited for. Rethrows a failed computation's exception
/// (PPM, wavelet, N-body order).
AppNumerics app_numerics(const StudyConfig& cfg);

/// One app's numerics through the same cache, computed on the calling
/// thread (no pool) when no one has claimed them: the per-app lookups of
/// callers that need a single app, such as pvm's SPMD trace builders.
std::shared_ptr<const apps::ppm::PpmNumerics> ppm_numerics(
    const apps::ppm::PpmConfig& cfg);
std::shared_ptr<const apps::nbody::NBodyNumerics> nbody_numerics(
    const apps::nbody::NBodyConfig& cfg);

struct NumericsCacheStats {
  CacheCounts ppm;
  CacheCounts wavelet;
  CacheCounts nbody;
};

/// The process-wide cache's lookup counts so far.
NumericsCacheStats numerics_cache_stats();

}  // namespace ess::core
