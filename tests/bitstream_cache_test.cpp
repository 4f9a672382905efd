// Bitstream cache contract: a hit is byte-identical to a fresh
// generation, counters track hits/misses/evictions, the capacity valve
// bounds residency, the enabled switch bypasses storage entirely, and
// concurrent same-key lookups converge on one resident entry.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "bitstream/bitstream_cache.hpp"
#include "bitstream/generator.hpp"
#include "cost/prr_search.hpp"
#include "device/device_db.hpp"
#include "util/parallel.hpp"

namespace prcost {
namespace {

PrrPlan plan_on(const Device& device) {
  // BRAM-only demand: feasible on every catalog device (several column
  // patterns cannot place DSP and BRAM columns in one window) and forces
  // the generator's BRAM-content bursts into the cached stream.
  PrmRequirements req;
  req.lut_ff_pairs = 600;
  req.luts = 400;
  req.ffs = 300;
  req.dsps = 0;
  req.brams = 2;
  const auto plan = find_prr(req, device.fabric);
  EXPECT_TRUE(plan.has_value()) << device.name;
  return *plan;
}

/// Every test starts and ends with the default cache configuration so the
/// process-wide singleton cannot leak state between tests (or into other
/// suites when binaries share a process under gtest_discover_tests).
class BitstreamCacheTest : public ::testing::Test {
 protected:
  void SetUp() override { reset(); }
  void TearDown() override { reset(); }

  static void reset() {
    set_bitstream_cache_capacity(128);
    bitstream_cache_clear();
  }
};

TEST_F(BitstreamCacheTest, CachedMatchesUncachedOnEveryCatalogDevice) {
  for (const Device& device : DeviceDb::instance().all()) {
    const PrrPlan plan = plan_on(device);
    const Family family = device.fabric.family();
    const std::vector<u32> fresh = generate_bitstream(plan, family);
    const auto cached = generate_bitstream_cached(plan, family);
    EXPECT_EQ(*cached, fresh) << device.name;
    // Second lookup returns the same resident vector, still identical.
    const auto again = generate_bitstream_cached(plan, family);
    EXPECT_EQ(again.get(), cached.get()) << device.name;
    EXPECT_EQ(*again, fresh) << device.name;
  }
}

TEST_F(BitstreamCacheTest, CountsOneMissThenHits) {
  const Device& device = DeviceDb::instance().get("xc5vlx110t");
  const PrrPlan plan = plan_on(device);
  const BitstreamCacheStats before = bitstream_cache_stats();
  const auto first = generate_bitstream_cached(plan, device.fabric.family());
  const auto second = generate_bitstream_cached(plan, device.fabric.family());
  const auto third = generate_bitstream_cached(plan, device.fabric.family());
  const BitstreamCacheStats after = bitstream_cache_stats();
  EXPECT_EQ(after.misses - before.misses, 1u);
  EXPECT_EQ(after.hits - before.hits, 2u);
  EXPECT_EQ(after.entries, 1u);
  EXPECT_EQ(after.resident_words, first->size());
  EXPECT_EQ(first.get(), second.get());
  EXPECT_EQ(first.get(), third.get());
}

TEST_F(BitstreamCacheTest, DistinctOptionsAreDistinctEntries) {
  const Device& device = DeviceDb::instance().get("xc5vlx110t");
  const PrrPlan plan = plan_on(device);
  GeneratorOptions a;
  a.payload_seed = 1;
  GeneratorOptions b;
  b.payload_seed = 2;
  const Family family = device.fabric.family();
  const auto words_a = generate_bitstream_cached(plan, family, a);
  const auto words_b = generate_bitstream_cached(plan, family, b);
  EXPECT_NE(words_a.get(), words_b.get());
  EXPECT_NE(*words_a, *words_b);  // payload differs, framing does not
  EXPECT_EQ(words_a->size(), words_b->size());
  EXPECT_EQ(bitstream_cache_stats().entries, 2u);
}

TEST_F(BitstreamCacheTest, EvictsPastCapacityAndStaysCorrect) {
  const Device& device = DeviceDb::instance().get("xc5vlx110t");
  const PrrPlan plan = plan_on(device);
  const Family family = device.fabric.family();
  set_bitstream_cache_capacity(8);  // 1 entry per shard
  const BitstreamCacheStats before = bitstream_cache_stats();
  for (u64 seed = 0; seed < 40; ++seed) {
    GeneratorOptions options;
    options.payload_seed = seed;
    const auto cached = generate_bitstream_cached(plan, family, options);
    // Even while evicting, every result matches a fresh generation.
    if (seed % 13 == 0) {
      EXPECT_EQ(*cached, generate_bitstream(plan, family, options));
    }
  }
  const BitstreamCacheStats after = bitstream_cache_stats();
  EXPECT_GT(after.evictions, before.evictions);
  EXPECT_LE(after.entries, 8u);
}

TEST_F(BitstreamCacheTest, ConcurrentSameKeyLookupsConvergeOnOneEntry) {
  const Device& device = DeviceDb::instance().get("xc7k325t");
  const PrrPlan plan = plan_on(device);
  const Family family = device.fabric.family();
  const std::vector<u32> fresh = generate_bitstream(plan, family);
  constexpr std::size_t kCalls = 64;
  std::vector<std::shared_ptr<const std::vector<u32>>> results(kCalls);
  parallel_for(kCalls, [&](std::size_t i) {
    results[i] = generate_bitstream_cached(plan, family);
  });
  for (const auto& words : results) {
    ASSERT_TRUE(words);
    EXPECT_EQ(*words, fresh);
  }
  // First writer wins: exactly one resident entry, and late callers share
  // it (pointer equality with whatever ended up resident).
  EXPECT_EQ(bitstream_cache_stats().entries, 1u);
  const auto resident = generate_bitstream_cached(plan, family);
  EXPECT_EQ(*resident, fresh);
}

}  // namespace
}  // namespace prcost
