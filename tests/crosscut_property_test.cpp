// Cross-cutting property sweeps that tie several subsystems together:
// randomized requirements through search/availability/bitstream/linter on
// every device, simulator conservation laws across policies and media,
// and controller formula identities.
#include <gtest/gtest.h>

#include <cmath>

#include "bitstream/bitstream_cache.hpp"
#include "bitstream/crc.hpp"
#include "bitstream/generator.hpp"
#include "cost/prr_search.hpp"
#include "device/device_db.hpp"
#include "multitask/simulator.hpp"
#include "reconfig/controllers.hpp"
#include "tests/support/lint.hpp"
#include "tests/support/satisfies.hpp"
#include "util/rng.hpp"

namespace prcost {
namespace {

// ---------------------------------------- randomized requirement sweeps ---

class RandomReqSweep : public ::testing::TestWithParam<u64> {};

TEST_P(RandomReqSweep, SearchResultsAreAlwaysSufficientAndExact) {
  Rng rng{GetParam()};
  for (const Device& device : DeviceDb::instance().all()) {
    for (int trial = 0; trial < 8; ++trial) {
      PrmRequirements req;
      req.lut_ff_pairs = 1 + rng.below(5000);
      req.luts = req.lut_ff_pairs * 2 / 3;
      req.ffs = req.lut_ff_pairs / 2;
      req.dsps = rng.below(40);
      req.brams = rng.below(12);
      const auto plan = find_prr(req, device.fabric);
      if (!plan) continue;  // legitimately infeasible on small parts
      // Sufficiency (Eqs. 8-12 vs requirements).
      EXPECT_TRUE(satisfies(plan->organization, req, device.fabric.traits()))
          << device.name;
      // RU sanity: utilization of each demanded resource is in (0, 100].
      if (req.dsps > 0) {
        EXPECT_GT(plan->ru.dsp, 0.0);
        EXPECT_LE(plan->ru.dsp, 100.0);
      }
      // Window composition equals the organization exactly.
      const ColumnDemand comp =
          device.fabric.window_composition(plan->window);
      EXPECT_EQ(comp.clb_cols, plan->organization.columns.clb_cols);
      EXPECT_EQ(comp.dsp_cols, plan->organization.columns.dsp_cols);
      EXPECT_EQ(comp.bram_cols, plan->organization.columns.bram_cols);
      // Bitstream model == generated artifact == lint-clean stream.
      const auto words = generate_bitstream(*plan, device.fabric.family());
      EXPECT_EQ(words.size(), plan->bitstream.total_words) << device.name;
      EXPECT_TRUE(lint_bitstream(words, device.fabric.family()).empty())
          << device.name;
      // Cached generation is byte-identical to the fresh one.
      const auto cached =
          generate_bitstream_cached(*plan, device.fabric.family());
      EXPECT_EQ(*cached, words) << device.name;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomReqSweep,
                         ::testing::Values(101, 202, 303, 404));

// ------------------------------------------------- CRC slicing oracle ---

class SlicedCrcProperty : public ::testing::TestWithParam<u64> {};

TEST_P(SlicedCrcProperty, MatchesBitSerialOracleOnRandomStreams) {
  Rng rng{GetParam()};
  ConfigCrc sliced;
  BitSerialConfigCrc oracle;
  for (int step = 0; step < 4000; ++step) {
    const u32 data = static_cast<u32>(rng());
    const auto reg = static_cast<ConfigReg>(rng() % 32);
    sliced.update(reg, data);
    oracle.update(reg, data);
    ASSERT_EQ(sliced.value(), oracle.value()) << "step " << step;
    if (rng.below(64) == 0) {
      sliced.reset();
      oracle.reset();
      ASSERT_EQ(sliced.value(), oracle.value());
    }
  }
}

TEST_P(SlicedCrcProperty, SpanUpdateEqualsPerWordUpdates) {
  Rng rng{GetParam() ^ 0x5Fa2u};
  for (int trial = 0; trial < 32; ++trial) {
    std::vector<u32> burst(1 + rng.below(600));
    for (u32& word : burst) word = static_cast<u32>(rng());
    const auto reg = static_cast<ConfigReg>(rng() % 32);
    ConfigCrc span_crc;
    ConfigCrc word_crc;
    BitSerialConfigCrc oracle;
    span_crc.update_span(reg, burst);
    for (const u32 word : burst) {
      word_crc.update(reg, word);
      oracle.update(reg, word);
    }
    ASSERT_EQ(span_crc.value(), word_crc.value());
    ASSERT_EQ(span_crc.value(), oracle.value());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SlicedCrcProperty,
                         ::testing::Values(11, 22, 33, 44));

TEST(MonotoneProperty, MoreDemandNeverShrinksThePrr) {
  const Fabric& fabric = DeviceDb::instance().get("xc6vlx240t").fabric;
  PrmRequirements req;
  req.lut_ff_pairs = 100;
  u64 last_size = 0;
  for (int step = 0; step < 12; ++step) {
    const auto plan = find_prr(req, fabric);
    ASSERT_TRUE(plan.has_value()) << "step " << step;
    EXPECT_GE(plan->organization.size(), last_size);
    last_size = plan->organization.size();
    req.lut_ff_pairs += 700;
    req.dsps += 3;
  }
}

TEST(MonotoneProperty, BitstreamGrowsWithEveryColumnKind) {
  const FamilyTraits& t = traits(Family::kVirtex5);
  PrrOrganization base;
  base.h = 2;
  base.columns = ColumnDemand{3, 1, 1};
  const u64 base_bytes = estimate_bitstream(base, t).total_bytes;
  for (int kind = 0; kind < 3; ++kind) {
    PrrOrganization bigger = base;
    if (kind == 0) ++bigger.columns.clb_cols;
    if (kind == 1) ++bigger.columns.dsp_cols;
    if (kind == 2) ++bigger.columns.bram_cols;
    EXPECT_GT(estimate_bitstream(bigger, t).total_bytes, base_bytes) << kind;
  }
  PrrOrganization taller = base;
  ++taller.h;
  EXPECT_GT(estimate_bitstream(taller, t).total_bytes, base_bytes);
}

// ------------------------------------------------- simulator invariants ---

struct SimCase {
  SchedPolicy policy;
  StorageMedia media;
  u32 prrs;
};

class SimInvariants : public ::testing::TestWithParam<SimCase> {};

TEST_P(SimInvariants, ConservationAndOrdering) {
  const auto [policy, media, prrs] = GetParam();
  std::vector<PrmInfo> prms{PrmInfo{"a", {}, 83064},
                            PrmInfo{"b", {}, 157296},
                            PrmInfo{"c", {}, 18040}};
  WorkloadParams wp;
  wp.count = 64;
  wp.seed = 7;
  const auto tasks = make_workload(wp);
  SimConfig config;
  config.policy = policy;
  config.media = media;
  config.prr_count = prrs;
  const SimResult result = simulate(prms, tasks, config);
  // Conservation: every task is dispatched exactly once.
  EXPECT_EQ(result.reconfig_count + result.reuse_hits, tasks.size());
  EXPECT_EQ(result.tasks.size(), tasks.size());
  double exec_total = 0;
  for (const HwTask& task : tasks) exec_total += task.exec_s;
  // Makespan bounds: at least the serial-execution lower bound divided by
  // pool size; at most serial execution plus all reconfigurations.
  EXPECT_GE(result.makespan_s * prrs * 1.0001, exec_total / 4);
  EXPECT_LE(result.makespan_s,
            exec_total + result.total_reconfig_s +
                tasks.back().arrival_s + 1.0);
  EXPECT_GE(result.prr_busy_fraction, 0.0);
  EXPECT_LE(result.prr_busy_fraction, 1.0 + 1e-9);
}

std::vector<SimCase> sim_cases() {
  std::vector<SimCase> cases;
  for (const SchedPolicy policy : kAllPolicies) {
    for (const StorageMedia media :
         {StorageMedia::kDdrSdram, StorageMedia::kCompactFlash}) {
      for (const u32 prrs : {1u, 3u}) {
        cases.push_back(SimCase{policy, media, prrs});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Grid, SimInvariants,
                         ::testing::ValuesIn(sim_cases()));

// ----------------------------------------------- controller identities ---

TEST(ControllerIdentity, DmaEqualsMaxOfPhases) {
  const IcapModel icap = default_icap(Family::kVirtex5);
  const DmaIcapController dma{icap, 0.0};  // zero setup
  for (const StorageMedia media : kAllMedia) {
    for (const u64 bytes : {1000ull, 83064ull, 1000000ull}) {
      const ReconfigEstimate e = dma.estimate(bytes, media);
      EXPECT_NEAR(e.total_s, std::max(e.fetch_s, e.write_s), 1e-15);
    }
  }
}

TEST(ControllerIdentity, CpuEqualsSumOfPhases) {
  const IcapModel icap = default_icap(Family::kVirtex5);
  const CpuIcapController cpu{icap};
  const ReconfigEstimate e = cpu.estimate(83064, StorageMedia::kDdrSdram);
  EXPECT_NEAR(e.total_s, e.fetch_s + e.write_s + e.overhead_s, 1e-15);
}

TEST(ControllerIdentity, EstimatesScaleLinearly) {
  for (const auto& controller : standard_controllers(Family::kVirtex5)) {
    const double one = controller->estimate(100000, StorageMedia::kBram).total_s;
    const double two = controller->estimate(200000, StorageMedia::kBram).total_s;
    // Up to the fixed setup overhead, time doubles with size.
    EXPECT_NEAR(two / one, 2.0, 0.05) << controller->name();
  }
}

}  // namespace
}  // namespace prcost
