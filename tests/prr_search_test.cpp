// Fig. 1 search-flow tests, including the full reproduction of the paper's
// Table V as a parameterized suite over the reconstructed records.
#include <gtest/gtest.h>

#include <cmath>

#include "cost/prr_search.hpp"
#include "device/device_db.hpp"
#include "paperdata/paper_dataset.hpp"
#include "tests/support/satisfies.hpp"

namespace prcost {
namespace {

const Fabric& lx110t() {
  return DeviceDb::instance().get("xc5vlx110t").fabric;
}
const Fabric& lx75t() { return DeviceDb::instance().get("xc6vlx75t").fabric; }

// ------------------------------------------------ Table V reproduction ---

class TableVSuite
    : public ::testing::TestWithParam<paperdata::TableVRecord> {};

TEST_P(TableVSuite, OrganizationMatchesPaper) {
  const auto& rec = GetParam();
  const Fabric& fabric = DeviceDb::instance().get(rec.device).fabric;
  const auto plan = find_prr(rec.req, fabric);
  ASSERT_TRUE(plan.has_value()) << rec.prm << " on " << rec.device;
  EXPECT_EQ(plan->organization.h, rec.h);
  EXPECT_EQ(plan->organization.columns.clb_cols, rec.w_clb);
  EXPECT_EQ(plan->organization.columns.dsp_cols, rec.w_dsp);
  EXPECT_EQ(plan->organization.columns.bram_cols, rec.w_bram);
}

TEST_P(TableVSuite, AvailabilityMatchesPaper) {
  const auto& rec = GetParam();
  const Fabric& fabric = DeviceDb::instance().get(rec.device).fabric;
  const auto plan = find_prr(rec.req, fabric);
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->available.clbs, rec.clb_avail);
  EXPECT_EQ(plan->available.ffs, rec.ff_avail);
  EXPECT_EQ(plan->available.luts, rec.lut_avail);
  EXPECT_EQ(plan->available.dsps, rec.dsp_avail);
  EXPECT_EQ(plan->available.brams, rec.bram_avail);
}

TEST_P(TableVSuite, UtilizationMatchesPaperWithinRounding) {
  // The paper prints integer percentages with an unrecoverable rounding
  // convention (MIPS/LX110T prints 96.47% as 97 but FIR/LX75T prints
  // 12.31% as 12), so we accept +/-1 point.
  const auto& rec = GetParam();
  const Fabric& fabric = DeviceDb::instance().get(rec.device).fabric;
  const auto plan = find_prr(rec.req, fabric);
  ASSERT_TRUE(plan.has_value());
  EXPECT_NEAR(plan->ru.clb, rec.ru_clb, 1.0);
  EXPECT_NEAR(plan->ru.ff, rec.ru_ff, 1.0);
  EXPECT_NEAR(plan->ru.lut, rec.ru_lut, 1.0);
  EXPECT_NEAR(plan->ru.dsp, rec.ru_dsp, 1.0);
  EXPECT_NEAR(plan->ru.bram, rec.ru_bram, 1.0);
}

TEST_P(TableVSuite, ClbReqMatchesPaper) {
  const auto& rec = GetParam();
  EXPECT_EQ(clb_req(rec.req, traits(rec.family)), rec.clb_req);
}

INSTANTIATE_TEST_SUITE_P(
    Paper, TableVSuite,
    ::testing::ValuesIn(paperdata::table5().begin(),
                        paperdata::table5().end()),
    [](const ::testing::TestParamInfo<paperdata::TableVRecord>& tp_info) {
      std::string name{tp_info.param.prm};
      name += "_";
      name += tp_info.param.device;
      return name;
    });

// -------------------------------------------------------- search logic ---

TEST(Search, MinAreaBeatsFirstFeasibleForFir) {
  // The paper's FIR/LX110T organization (H=5, size 15) is NOT the first
  // feasible height: H=4 works too but costs 16 cells. This is the
  // evidence the flow minimizes H*W.
  const auto& rec = paperdata::table5_record("FIR", "xc5vlx110t");
  SearchOptions first;
  first.objective = SearchObjective::kFirstFeasible;
  const auto first_plan = find_prr(rec.req, lx110t(), first);
  ASSERT_TRUE(first_plan.has_value());
  EXPECT_EQ(first_plan->organization.h, 4u);
  EXPECT_EQ(first_plan->organization.size(), 16u);

  const auto area_plan = find_prr(rec.req, lx110t());
  ASSERT_TRUE(area_plan.has_value());
  EXPECT_EQ(area_plan->organization.h, 5u);
  EXPECT_EQ(area_plan->organization.size(), 15u);
}

TEST(Search, MinBitstreamObjective) {
  const auto& rec = paperdata::table5_record("FIR", "xc5vlx110t");
  SearchOptions options;
  options.objective = SearchObjective::kMinBitstream;
  const auto plan = find_prr(rec.req, lx110t(), options);
  ASSERT_TRUE(plan.has_value());
  // Minimum-bitstream must be <= the min-area plan's bitstream.
  const auto area_plan = find_prr(rec.req, lx110t());
  EXPECT_LE(plan->bitstream.total_bytes, area_plan->bitstream.total_bytes);
}

TEST(Search, EmptyRequirementsGiveNoPlan) {
  EXPECT_FALSE(find_prr(PrmRequirements{}, lx110t()).has_value());
}

TEST(Search, ImpossibleDemandGivesNoPlan) {
  PrmRequirements req;
  req.lut_ff_pairs = 10'000'000;  // far beyond the device
  EXPECT_FALSE(find_prr(req, lx110t()).has_value());
  req = PrmRequirements{};
  req.dsps = 1000;  // only 64 on the LX110T
  EXPECT_FALSE(find_prr(req, lx110t()).has_value());
}

TEST(Search, MaxHeightOptionRestricts) {
  const auto& rec = paperdata::table5_record("FIR", "xc5vlx110t");
  SearchOptions options;
  options.max_height = 4;  // excludes the H=5 optimum
  const auto plan = find_prr(rec.req, lx110t(), options);
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->organization.h, 4u);
}

TEST(Search, EnumerateReturnsAscendingHeights) {
  const auto& rec = paperdata::table5_record("MIPS", "xc5vlx110t");
  const auto plans = enumerate_prrs(rec.req, lx110t());
  ASSERT_GT(plans.size(), 1u);
  for (std::size_t i = 1; i < plans.size(); ++i) {
    EXPECT_LT(plans[i - 1].organization.h, plans[i].organization.h);
  }
  // Every enumerated plan satisfies the requirements.
  for (const PrrPlan& plan : plans) {
    EXPECT_TRUE(satisfies(plan.organization, rec.req, lx110t().traits()));
  }
}

TEST(Search, PlansCarryConsistentBitstreamEstimate) {
  const auto& rec = paperdata::table5_record("MIPS", "xc6vlx75t");
  const auto plan = find_prr(rec.req, lx75t());
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(
      plan->bitstream.total_bytes,
      estimate_bitstream(plan->organization, lx75t().traits()).total_bytes);
}

// ---------------------------------------------------------- shared PRR ---

TEST(SharedPrr, TakesElementwiseMaximum) {
  // FIR (DSP-heavy) + SDRAM (logic-only) share a PRR: the PRR must carry
  // FIR's DSP demand and the max CLB demand.
  const auto& fir = paperdata::table5_record("FIR", "xc5vlx110t");
  const auto& sdram = paperdata::table5_record("SDRAM", "xc5vlx110t");
  PrmRequirements merged = fir.req;
  merged.merge(sdram.req);
  const auto shared = find_prr(merged, lx110t());
  ASSERT_TRUE(shared.has_value());
  const auto fir_alone = find_prr(fir.req, lx110t());
  EXPECT_GE(shared->available.dsps, fir.req.dsps);
  EXPECT_GE(shared->available.clbs,
            clb_req(fir.req, lx110t().traits()));
  EXPECT_GE(shared->organization.size(),
            fir_alone->organization.size());
}

TEST(SharedPrr, SinglePrmEqualsFindPrr) {
  const auto& rec = paperdata::table5_record("SDRAM", "xc6vlx75t");
  PrmRequirements merged;  // the merge identity
  merged.merge(rec.req);
  const auto shared = find_prr(merged, lx75t());
  const auto single = find_prr(rec.req, lx75t());
  ASSERT_TRUE(shared.has_value());
  ASSERT_TRUE(single.has_value());
  EXPECT_EQ(shared->organization.size(), single->organization.size());
}

TEST(SharedPrr, EmptyListGivesNothing) {
  // Merging no PRMs leaves the merge identity, which needs no PRR.
  const PrmRequirements merged;
  EXPECT_FALSE(find_prr(merged, lx110t()).has_value());
  EXPECT_FALSE(find_prr(merged, lx75t()).has_value());
}

TEST(SharedPrr, MergeIsOrderIndependentAndIdempotent) {
  const auto& fir = paperdata::table5_record("FIR", "xc5vlx110t");
  const auto& sdram = paperdata::table5_record("SDRAM", "xc5vlx110t");
  PrmRequirements fir_then_sdram = fir.req;
  fir_then_sdram.merge(sdram.req);
  PrmRequirements sdram_then_fir = sdram.req;
  sdram_then_fir.merge(fir.req);
  EXPECT_EQ(fir_then_sdram, sdram_then_fir);
  PrmRequirements twice = fir_then_sdram;
  twice.merge(sdram.req);
  EXPECT_EQ(twice, fir_then_sdram);
  const auto a = find_prr(fir_then_sdram, lx110t());
  const auto b = find_prr(sdram_then_fir, lx110t());
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(a->organization.size(), b->organization.size());
}

// Property sweep: for every catalog device, min-area plans never lose to
// any enumerated alternative, and all plans respect fabric feasibility.
class DeviceSweep : public ::testing::TestWithParam<std::string> {};

TEST_P(DeviceSweep, MinAreaIsMinimalOverEnumeration) {
  const Fabric& fabric = DeviceDb::instance().get(GetParam()).fabric;
  PrmRequirements req;
  req.lut_ff_pairs = 500;
  req.dsps = 10;
  req.brams = 3;
  const auto best = find_prr(req, fabric);
  const auto all = enumerate_prrs(req, fabric);
  if (!best) {
    EXPECT_TRUE(all.empty());
    return;
  }
  for (const PrrPlan& plan : all) {
    EXPECT_GE(plan.organization.size(), best->organization.size());
    // The chosen window must actually have the demanded composition.
    u32 clb = 0, dsp = 0, bram = 0;
    for (u32 c = plan.window.first_col;
         c < plan.window.first_col + plan.window.width; ++c) {
      switch (fabric.column(c)) {
        case ColumnType::kClb: ++clb; break;
        case ColumnType::kDsp: ++dsp; break;
        case ColumnType::kBram: ++bram; break;
        default: FAIL() << "window contains blocked column";
      }
    }
    EXPECT_EQ(clb, plan.organization.columns.clb_cols);
    EXPECT_EQ(dsp, plan.organization.columns.dsp_cols);
    EXPECT_EQ(bram, plan.organization.columns.bram_cols);
  }
}

INSTANTIATE_TEST_SUITE_P(Catalog, DeviceSweep,
                         ::testing::Values("xc5vlx110t", "xc6vlx75t",
                                           "xc4vlx60", "xc5vlx50t",
                                           "xc6vlx240t", "xc7k325t"));

}  // namespace
}  // namespace prcost
