// The combined SPMD cluster run every cluster-scale driver shares
// (capture-pdes, ext_pdes_scaling, ext_parallel_machine), pinned against
// the output it gave before it was moved into one function.
#include "pvm/combined.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/presets.hpp"

namespace ess::pvm {
namespace {

std::uint64_t fnv1a(std::uint64_t h, const void* p, std::size_t n) {
  const auto* bytes = static_cast<const unsigned char*>(p);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= bytes[i];
    h *= 1099511628211ull;
  }
  return h;
}

/// FNV-1a over every node's duration, record count and record fields.
std::uint64_t traces_digest(const std::vector<trace::TraceSet>& traces) {
  std::uint64_t h = 1469598103934665603ull;
  for (const auto& t : traces) {
    const SimTime duration = t.duration();
    const std::uint64_t count = t.size();
    h = fnv1a(h, &duration, sizeof duration);
    h = fnv1a(h, &count, sizeof count);
    for (const auto& r : t.records()) {
      h = fnv1a(h, &r.timestamp, sizeof r.timestamp);
      h = fnv1a(h, &r.sector, sizeof r.sector);
      h = fnv1a(h, &r.size_bytes, sizeof r.size_bytes);
      h = fnv1a(h, &r.is_write, sizeof r.is_write);
      h = fnv1a(h, &r.outstanding, sizeof r.outstanding);
      h = fnv1a(h, &r.node, sizeof r.node);
    }
  }
  return h;
}

TEST(RunCombined, MatchesPinnedDigest) {
  // 4 nodes at the reduced capture scale, serial and sharded on a 2-runner
  // gang. The constants were recorded from the sequence as it ran before
  // it became pvm::run_combined.
  const struct {
    std::size_t shards, jobs;
  } grid[] = {{1, 1}, {3, 2}};
  for (const auto& g : grid) {
    const std::string what = "shards=" + std::to_string(g.shards) +
                             " jobs=" + std::to_string(g.jobs);
    const auto run =
        run_combined(core::fast_study_config(), 4, g.shards, g.jobs);
    EXPECT_TRUE(run.completed) << what;
    EXPECT_EQ(run.shards, g.shards) << what;
    ASSERT_EQ(run.traces.size(), 4u) << what;
    EXPECT_EQ(run.stats.sends, 111u) << what;
    EXPECT_EQ(run.stats.barriers_completed, 7u) << what;
    EXPECT_EQ(traces_digest(run.traces), 0x3efd0266d085f7d9ull) << what;
  }
}

}  // namespace
}  // namespace ess::pvm
