#include "util/flat_map.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <map>
#include <memory>

#include "util/rng.hpp"

namespace ess::util {
namespace {

// Random inserts, increments and erases against std::map, over key ranges
// small enough that probe runs collide, wrap past the table's end and get
// shifted back by erase.
template <typename K>
void check_against_map(std::uint64_t seed, std::uint64_t key_range) {
  FlatMap<K, std::uint64_t> flat;
  std::map<K, std::uint64_t> ref;
  Rng rng(seed);
  for (int step = 0; step < 20'000; ++step) {
    const K key = static_cast<K>(rng.uniform(key_range) * 7919);
    switch (rng.uniform(4)) {
      case 0:
        EXPECT_EQ(flat.erase(key), ref.erase(key) == 1);
        break;
      default:
        flat[key] += step;
        ref[key] += step;
        break;
    }
    ASSERT_EQ(flat.size(), ref.size());
    const K probe = static_cast<K>(rng.uniform(key_range) * 7919);
    const std::uint64_t* got = flat.find(probe);
    const auto it = ref.find(probe);
    ASSERT_EQ(got != nullptr, it != ref.end()) << "step " << step;
    if (got != nullptr) {
      ASSERT_EQ(*got, it->second);
    }
  }
  std::map<K, std::uint64_t> seen;
  flat.for_each([&](K k, std::uint64_t v) { seen.emplace(k, v); });
  EXPECT_EQ(seen, ref);
}

TEST(FlatMap, MatchesStdMapUnderInsertAndErase) {
  check_against_map<std::uint32_t>(1, 40);
  check_against_map<std::uint32_t>(2, 3'000);
  check_against_map<std::int32_t>(3, 500);
  check_against_map<std::uint64_t>(4, 1'000'000);
}

TEST(FlatMap, ExtremeKeysAreOrdinaryKeys) {
  FlatMap<std::int32_t, int> m;
  m[std::numeric_limits<std::int32_t>::min()] = 1;
  m[-1] = 2;
  m[0] = 3;
  m[std::numeric_limits<std::int32_t>::max()] = 4;
  EXPECT_EQ(m.size(), 4u);
  EXPECT_EQ(*m.find(std::numeric_limits<std::int32_t>::min()), 1);
  EXPECT_EQ(*m.find(0), 3);
  EXPECT_EQ(m.find(1), nullptr);
  EXPECT_TRUE(m.erase(-1));
  EXPECT_FALSE(m.erase(-1));
  EXPECT_EQ(*m.find(std::numeric_limits<std::int32_t>::max()), 4);
}

TEST(FlatMap, ClearAndReserveKeepItUsable) {
  FlatMap<std::uint64_t, int> m;
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.find(5), nullptr);
  EXPECT_FALSE(m.erase(5));
  m.reserve(1000);
  for (std::uint64_t k = 0; k < 1000; ++k) m[k] = static_cast<int>(k);
  EXPECT_EQ(m.size(), 1000u);
  m.clear();
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.find(10), nullptr);
  m[10] = 7;
  EXPECT_EQ(*m.find(10), 7);
  // A new key reads value-initialized, not what its slot held before.
  EXPECT_EQ(m[11], 0);
}

TEST(FlatMap, MoveOnlyValuesSurviveEraseShiftsAndRehash) {
  FlatMap<std::uint32_t, std::unique_ptr<std::uint32_t>> m;
  for (std::uint32_t k = 0; k < 200; ++k) {
    m[k * 64] = std::make_unique<std::uint32_t>(k);
  }
  for (std::uint32_t k = 0; k < 200; k += 3) EXPECT_TRUE(m.erase(k * 64));
  for (std::uint32_t k = 0; k < 200; ++k) {
    std::unique_ptr<std::uint32_t>* v = m.find(k * 64);
    if (k % 3 == 0) {
      EXPECT_EQ(v, nullptr);
      EXPECT_EQ(m[k * 64], nullptr);  // re-inserted empty
    } else {
      ASSERT_NE(v, nullptr);
      EXPECT_EQ(**v, k);
    }
  }
}

}  // namespace
}  // namespace ess::util
