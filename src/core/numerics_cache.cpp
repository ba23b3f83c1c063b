#include "core/numerics_cache.hpp"

#include <utility>

#include "core/study.hpp"
#include "exec/thread_pool.hpp"

namespace ess::core {
namespace {

struct Caches {
  OnceCache<apps::ppm::PpmNumericsInput, apps::ppm::PpmNumerics> ppm;
  OnceCache<apps::wavelet::WaveletNumericsInput,
            apps::wavelet::WaveletNumerics>
      wavelet;
  OnceCache<apps::nbody::NBodyNumericsInput, apps::nbody::NBodyNumerics>
      nbody;
};

Caches& caches() {
  static Caches c;
  return c;
}

/// The cached value for `in`, filled by `compute` on this thread when this
/// caller claims it.
template <typename Key, typename Value, typename Compute>
std::shared_ptr<const Value> lookup(OnceCache<Key, Value>& cache,
                                    const Key& in, Compute&& compute) {
  auto claim = cache.claim(in);
  if (claim.owns()) cache.fill(in, claim, std::forward<Compute>(compute));
  return claim.get();
}

}  // namespace

AppNumerics app_numerics(const StudyConfig& cfg) {
  Caches& c = caches();
  const auto ppm_in = apps::ppm::numerics_input(cfg.ppm);
  const auto wavelet_in = apps::wavelet::numerics_input(cfg.wavelet);
  const auto nbody_in = apps::nbody::numerics_input(cfg.nbody);
  auto ppm = c.ppm.claim(ppm_in);
  auto wavelet = c.wavelet.claim(wavelet_in);
  auto nbody = c.nbody.claim(nbody_in);

  if (ppm.owns() || wavelet.owns() || nbody.owns()) {
    // No pool job waits on a queued job: PPM's sweeps and N-body's force
    // pass hand their bands and blocks to this pool through
    // exec::parallel_for, whose caller drains indices itself and waits only
    // on indices already running.
    exec::ThreadPool pool(exec::default_workers());
    if (ppm.owns()) {
      pool.submit([&] {
        c.ppm.fill(ppm_in, ppm, [&] {
          return apps::ppm::compute_numerics(ppm_in, &pool);
        });
      });
    }
    if (wavelet.owns()) {
      pool.submit([&] {
        c.wavelet.fill(wavelet_in, wavelet, [&] {
          return apps::wavelet::compute_numerics(wavelet_in);
        });
      });
    }
    if (nbody.owns()) {
      c.nbody.fill(nbody_in, nbody, [&] {
        return apps::nbody::compute_numerics(nbody_in, &pool);
      });
    }
    pool.wait_idle();
  }
  return {ppm.get(), wavelet.get(), nbody.get()};
}

std::shared_ptr<const apps::ppm::PpmNumerics> ppm_numerics(
    const apps::ppm::PpmConfig& cfg) {
  const auto in = apps::ppm::numerics_input(cfg);
  return lookup(caches().ppm, in,
                [&] { return apps::ppm::compute_numerics(in); });
}

std::shared_ptr<const apps::nbody::NBodyNumerics> nbody_numerics(
    const apps::nbody::NBodyConfig& cfg) {
  const auto in = apps::nbody::numerics_input(cfg);
  return lookup(caches().nbody, in,
                [&] { return apps::nbody::compute_numerics(in); });
}

NumericsCacheStats numerics_cache_stats() {
  const Caches& c = caches();
  return {c.ppm.counts(), c.wavelet.counts(), c.nbody.counts()};
}

}  // namespace ess::core
