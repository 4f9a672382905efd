// Plan-cache correctness: a hit must be byte-identical to a fresh
// computation, with the cache on or off, from one thread or many.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "api/engine.hpp"
#include "cost/floorplan.hpp"
#include "cost/plan_cache.hpp"
#include "cost/prr_search.hpp"
#include "device/device_db.hpp"
#include "dse/explorer.hpp"
#include "multitask/workload.hpp"
#include "netlist/generators.hpp"
#include "synth/synthesizer.hpp"

namespace prcost {
namespace {

/// Restores the global enabled flag (tests toggle it) and starts each test
/// from a cold cache so hits cannot leak across tests.
class PlanCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    was_enabled_ = plan_cache_enabled();
    plan_cache_clear();
  }
  void TearDown() override {
    set_plan_cache_enabled(was_enabled_);
    set_plan_cache_capacity(1u << 16);
    plan_cache_clear();
  }

 private:
  bool was_enabled_ = true;
};

PrmRequirements req_for(const Netlist& design, const Fabric& fabric) {
  return PrmRequirements::from_report(
      synthesize(design, SynthOptions{fabric.family()}).report);
}

void expect_plan_eq(const PrrPlan& a, const PrrPlan& b) {
  EXPECT_EQ(a.organization.h, b.organization.h);
  EXPECT_EQ(a.organization.columns.clb_cols, b.organization.columns.clb_cols);
  EXPECT_EQ(a.organization.columns.dsp_cols, b.organization.columns.dsp_cols);
  EXPECT_EQ(a.organization.columns.bram_cols,
            b.organization.columns.bram_cols);
  EXPECT_EQ(a.window.first_col, b.window.first_col);
  EXPECT_EQ(a.window.width, b.window.width);
  EXPECT_EQ(a.first_row, b.first_row);
  EXPECT_EQ(a.available.clbs, b.available.clbs);
  EXPECT_EQ(a.available.luts, b.available.luts);
  EXPECT_EQ(a.available.ffs, b.available.ffs);
  EXPECT_EQ(a.available.dsps, b.available.dsps);
  EXPECT_EQ(a.available.brams, b.available.brams);
  EXPECT_EQ(a.ru.clb, b.ru.clb);
  EXPECT_EQ(a.ru.ff, b.ru.ff);
  EXPECT_EQ(a.ru.lut, b.ru.lut);
  EXPECT_EQ(a.ru.dsp, b.ru.dsp);
  EXPECT_EQ(a.ru.bram, b.ru.bram);
  EXPECT_EQ(a.bitstream.initial_words, b.bitstream.initial_words);
  EXPECT_EQ(a.bitstream.config_words_per_row, b.bitstream.config_words_per_row);
  EXPECT_EQ(a.bitstream.bram_words_per_row, b.bitstream.bram_words_per_row);
  EXPECT_EQ(a.bitstream.final_words, b.bitstream.final_words);
  EXPECT_EQ(a.bitstream.rows, b.bitstream.rows);
  EXPECT_EQ(a.bitstream.total_words, b.bitstream.total_words);
  EXPECT_EQ(a.bitstream.total_bytes, b.bitstream.total_bytes);
}

TEST_F(PlanCacheTest, FindPrrHitMatchesUncached) {
  set_plan_cache_enabled(true);
  for (const char* device : {"xc5vlx110t", "xc6vlx75t"}) {
    const Fabric& fabric = DeviceDb::instance().get(device).fabric;
    for (const Netlist& design : {make_fir(), make_mips5(), make_uart()}) {
      const PrmRequirements req = req_for(design, fabric);
      for (const SearchObjective objective :
           {SearchObjective::kMinArea, SearchObjective::kFirstFeasible,
            SearchObjective::kMinBitstream}) {
        for (const u32 max_height : {u32{0}, u32{3}}) {
          SearchOptions options;
          options.objective = objective;
          options.max_height = max_height;
          const auto fresh = find_prr_uncached(req, fabric, options);
          const auto miss = find_prr(req, fabric, options);  // populates
          const auto hit = find_prr(req, fabric, options);   // cache hit
          ASSERT_EQ(fresh.has_value(), miss.has_value());
          ASSERT_EQ(fresh.has_value(), hit.has_value());
          if (fresh) {
            expect_plan_eq(*fresh, *miss);
            expect_plan_eq(*fresh, *hit);
          }
        }
      }
    }
  }
  const PlanCacheStats stats = plan_cache_stats();
  EXPECT_GT(stats.hits, 0u);
}

TEST_F(PlanCacheTest, InfeasibleResultIsCachedToo) {
  set_plan_cache_enabled(true);
  const Fabric& fabric = DeviceDb::instance().get("xc6vlx75t").fabric;
  PrmRequirements req;  // absurd demand: cannot fit at any height
  req.lut_ff_pairs = 10'000'000;
  req.luts = 10'000'000;
  req.ffs = 10'000'000;
  EXPECT_FALSE(find_prr(req, fabric).has_value());
  const u64 misses = plan_cache_stats().misses;
  EXPECT_FALSE(find_prr(req, fabric).has_value());
  EXPECT_EQ(plan_cache_stats().misses, misses);  // second call was a hit
}

TEST_F(PlanCacheTest, PlaceIdenticalWithCacheOnAndOff) {
  const Fabric& fabric = DeviceDb::instance().get("xc5vlx110t").fabric;
  const PrmRequirements fir = req_for(make_fir(), fabric);
  const PrmRequirements mips = req_for(make_mips5(), fabric);

  const auto run = [&](bool enabled) {
    set_plan_cache_enabled(enabled);
    Floorplanner floorplanner{fabric};
    floorplanner.reserve(0, fabric.num_columns(), 0, 1);
    std::vector<PrrPlan> plans;
    // Repeated placements force the superset pass once exact spans fill.
    for (int i = 0; i < 6; ++i) {
      const auto placed =
          floorplanner.place("p" + std::to_string(i), i % 2 ? mips : fir);
      if (!placed) break;
      plans.push_back(placed->plan);
    }
    return plans;
  };

  const auto cached = run(true);
  const auto uncached = run(false);
  ASSERT_FALSE(cached.empty());
  ASSERT_EQ(cached.size(), uncached.size());
  for (std::size_t i = 0; i < cached.size(); ++i) {
    expect_plan_eq(cached[i], uncached[i]);
  }
}

TEST_F(PlanCacheTest, ExploreBitIdenticalWithCacheOnAndOff) {
  const Fabric& fabric = DeviceDb::instance().get("xc5vlx110t").fabric;
  std::vector<PrmInfo> prms;
  for (int i = 0; i < 5; ++i) {
    prms.push_back(PrmInfo{
        "prm" + std::to_string(i),
        req_for(i % 2 ? make_mips5() : make_fir(), fabric), 0});
  }
  WorkloadParams wp;
  wp.count = 20;
  wp.prm_count = narrow<u32>(prms.size());
  const auto workload = make_workload(wp);

  set_plan_cache_enabled(true);
  const auto cached = explore(prms, fabric, workload);
  set_plan_cache_enabled(false);
  const auto uncached = explore(prms, fabric, workload);

  ASSERT_EQ(cached.size(), uncached.size());
  for (std::size_t i = 0; i < cached.size(); ++i) {
    EXPECT_EQ(cached[i].feasible, uncached[i].feasible);
    EXPECT_EQ(cached[i].infeasible_reason, uncached[i].infeasible_reason);
    EXPECT_EQ(cached[i].total_prr_area, uncached[i].total_prr_area);
    EXPECT_EQ(cached[i].total_bitstream_bytes,
              uncached[i].total_bitstream_bytes);
    EXPECT_EQ(cached[i].makespan_s, uncached[i].makespan_s);
    EXPECT_EQ(cached[i].total_reconfig_s, uncached[i].total_reconfig_s);
    ASSERT_EQ(cached[i].prr_plans.size(), uncached[i].prr_plans.size());
    for (std::size_t g = 0; g < cached[i].prr_plans.size(); ++g) {
      expect_plan_eq(cached[i].prr_plans[g], uncached[i].prr_plans[g]);
    }
  }
}

TEST_F(PlanCacheTest, ConcurrentLookupsAgree) {
  set_plan_cache_enabled(true);
  const Fabric& fabric = DeviceDb::instance().get("xc5vlx110t").fabric;
  const std::vector<PrmRequirements> reqs = {req_for(make_fir(), fabric),
                                             req_for(make_mips5(), fabric),
                                             req_for(make_uart(), fabric)};
  std::vector<std::optional<PrrPlan>> expected;
  for (const auto& req : reqs) expected.push_back(find_prr_uncached(req, fabric));

  constexpr int kThreads = 8;
  constexpr int kIters = 200;
  std::vector<std::thread> threads;
  std::atomic<int> mismatches{0};
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        const std::size_t which =
            static_cast<std::size_t>(t + i) % reqs.size();
        const auto plan = find_prr(reqs[which], fabric);
        const auto& want = expected[which];
        if (plan.has_value() != want.has_value() ||
            (plan && (plan->organization.h != want->organization.h ||
                      plan->bitstream.total_bytes !=
                          want->bitstream.total_bytes))) {
          mismatches.fetch_add(1);
        }
        const auto candidates = placement_candidates(
            reqs[which], fabric, SearchObjective::kMinArea);
        if (!candidates || candidates->empty()) mismatches.fetch_add(1);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST_F(PlanCacheTest, EvictionKeepsCacheBoundedAndCorrect) {
  set_plan_cache_enabled(true);
  set_plan_cache_capacity(16);  // one entry per shard
  const Fabric& fabric = DeviceDb::instance().get("xc5vlx110t").fabric;
  const u64 evictions_before = plan_cache_stats().evictions;
  // Far more distinct keys than capacity.
  for (u32 i = 1; i <= 200; ++i) {
    PrmRequirements req;
    req.lut_ff_pairs = i * 10;
    req.luts = i * 10;
    req.ffs = i * 10;
    const auto cached = find_prr(req, fabric);
    const auto fresh = find_prr_uncached(req, fabric);
    ASSERT_EQ(cached.has_value(), fresh.has_value()) << "req " << i;
    if (cached) expect_plan_eq(*cached, *fresh);
  }
  const PlanCacheStats stats = plan_cache_stats();
  EXPECT_GT(stats.evictions, evictions_before);
  EXPECT_LE(stats.entries, 16u);
}

TEST_F(PlanCacheTest, ClearEmptiesButKeepsLifetimeCounters) {
  set_plan_cache_enabled(true);
  const Fabric& fabric = DeviceDb::instance().get("xc5vlx110t").fabric;
  (void)find_prr(req_for(make_fir(), fabric), fabric);
  EXPECT_GT(plan_cache_stats().entries, 0u);
  const u64 misses = plan_cache_stats().misses;
  plan_cache_clear();
  EXPECT_EQ(plan_cache_stats().entries, 0u);
  EXPECT_EQ(plan_cache_stats().misses, misses);
}

TEST_F(PlanCacheTest, DisabledFlagBypassesCache) {
  set_plan_cache_enabled(false);
  const Fabric& fabric = DeviceDb::instance().get("xc5vlx110t").fabric;
  const u64 lookups =
      plan_cache_stats().hits + plan_cache_stats().misses;
  (void)find_prr(req_for(make_fir(), fabric), fabric);
  EXPECT_EQ(plan_cache_stats().hits + plan_cache_stats().misses, lookups);
  EXPECT_EQ(plan_cache_stats().entries, 0u);
}

// Constructing an Engine must not touch the process-wide plan-cache
// switch: a caller that turned the cache off keeps it off.
TEST_F(PlanCacheTest, EngineConstructionKeepsCacheSwitches) {
  set_plan_cache_enabled(false);
  const api::Engine engine;
  EXPECT_FALSE(plan_cache_enabled());
}

}  // namespace
}  // namespace prcost
