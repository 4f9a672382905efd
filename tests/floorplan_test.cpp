#include <gtest/gtest.h>

#include "cost/floorplan.hpp"
#include "device/device_db.hpp"
#include "paperdata/paper_dataset.hpp"
#include "tests/support/satisfies.hpp"
#include "util/error.hpp"

namespace prcost {
namespace {

const Fabric& lx110t() {
  return DeviceDb::instance().get("xc5vlx110t").fabric;
}

PrmRequirements small_logic() {
  PrmRequirements req;
  req.lut_ff_pairs = 300;  // 38 CLBs -> 2 columns at H=1
  req.luts = 250;
  req.ffs = 200;
  return req;
}

TEST(Floorplanner, StartsEmpty) {
  Floorplanner fp{lx110t()};
  EXPECT_DOUBLE_EQ(fp.occupancy(), 0.0);
  EXPECT_TRUE(fp.rect_free(0, 3, 0, 2));
}

TEST(Floorplanner, ReserveBlocksPlacement) {
  Floorplanner fp{lx110t()};
  fp.reserve(0, lx110t().num_columns(), 0, lx110t().rows());  // everything
  EXPECT_FALSE(fp.place("p", small_logic()).has_value());
  EXPECT_GT(fp.occupancy(), 0.99);
}

TEST(Floorplanner, ReserveOutOfRangeThrows) {
  Floorplanner fp{lx110t()};
  EXPECT_THROW(fp.reserve(0, lx110t().num_columns() + 1, 0, 1),
               ContractError);
  EXPECT_THROW(fp.reserve(0, 1, 0, lx110t().rows() + 1), ContractError);
}

TEST(Floorplanner, PlacementsDoNotOverlap) {
  Floorplanner fp{lx110t()};
  std::vector<PlacedPrr> placed;
  for (int i = 0; i < 6; ++i) {
    const auto p = fp.place("p" + std::to_string(i), small_logic());
    ASSERT_TRUE(p.has_value()) << i;
    placed.push_back(*p);
  }
  for (std::size_t a = 0; a < placed.size(); ++a) {
    for (std::size_t b = a + 1; b < placed.size(); ++b) {
      const auto& pa = placed[a];
      const auto& pb = placed[b];
      const bool col_overlap =
          pa.first_col < pb.first_col + pb.plan.window.width &&
          pb.first_col < pa.first_col + pa.plan.window.width;
      const bool row_overlap =
          pa.first_row < pb.first_row + pb.plan.organization.h &&
          pb.first_row < pa.first_row + pa.plan.organization.h;
      EXPECT_FALSE(col_overlap && row_overlap) << a << " vs " << b;
    }
  }
  EXPECT_EQ(fp.placements().size(), 6u);
  EXPECT_GT(fp.occupancy(), 0.0);
}

TEST(Floorplanner, FillsRowsBottomUp) {
  Floorplanner fp{lx110t()};
  const auto first = fp.place("a", small_logic());
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->first_row, 0u);
  // Same demand again: either a different window or the next row up, but
  // never the same rectangle.
  const auto second = fp.place("b", small_logic());
  ASSERT_TRUE(second.has_value());
  EXPECT_TRUE(second->first_col != first->first_col ||
              second->first_row != first->first_row);
}

TEST(Floorplanner, EventuallyRunsOut) {
  Floorplanner fp{lx110t()};
  int placed = 0;
  while (fp.place("p", small_logic()).has_value()) {
    ++placed;
    ASSERT_LT(placed, 1000) << "floorplanner never saturated";
  }
  EXPECT_GT(placed, 10);  // the LX110T fits many 2-column PRRs
  // After saturation the occupancy is substantial.
  EXPECT_GT(fp.occupancy(), 0.5);
}

TEST(Floorplanner, PlacesPaperTrio) {
  // FIR + MIPS + SDRAM must coexist on the LX110T.
  Floorplanner fp{lx110t()};
  for (const char* prm : {"MIPS", "FIR", "SDRAM"}) {  // biggest first
    const auto& rec = paperdata::table5_record(prm, "xc5vlx110t");
    EXPECT_TRUE(fp.place(prm, rec.req).has_value()) << prm;
  }
  EXPECT_EQ(fp.placements().size(), 3u);
}

TEST(Floorplanner, SupersetFallbackPlacesWideDemands) {
  // On a regular interleaved fabric, a wide CLB+DSP demand has no
  // exact-composition window; the floorplanner must fall back to a
  // superset window whose surplus columns show up in the plan.
  const Fabric& fabric = DeviceDb::instance().get("xc6vlx240t").fabric;
  PrmRequirements req;
  req.lut_ff_pairs = 1158;  // FIR-on-V6-sized demand
  req.luts = 830;
  req.ffs = 350;
  req.dsps = 27;
  Floorplanner fp{fabric};
  const auto placed = fp.place("fir", req);
  ASSERT_TRUE(placed.has_value());
  // The effective organization satisfies the demand...
  EXPECT_TRUE(satisfies(placed->plan.organization, req, fabric.traits()));
  // ...and matches the actual window composition (bitstream accounts for
  // the surplus columns).
  const ColumnDemand comp =
      fabric.window_composition(placed->plan.window);
  EXPECT_EQ(comp.clb_cols, placed->plan.organization.columns.clb_cols);
  EXPECT_EQ(comp.dsp_cols, placed->plan.organization.columns.dsp_cols);
  EXPECT_EQ(comp.bram_cols, placed->plan.organization.columns.bram_cols);
  EXPECT_EQ(
      placed->plan.bitstream.total_bytes,
      estimate_bitstream(placed->plan.organization, fabric.traits()).total_bytes);
}

TEST(Floorplanner, RespectsReservedStaticRegion) {
  Floorplanner fp{lx110t()};
  // Reserve the bottom row across the device (typical static region).
  fp.reserve(0, lx110t().num_columns(), 0, 1);
  const auto placed = fp.place("p", small_logic());
  ASSERT_TRUE(placed.has_value());
  EXPECT_GE(placed->first_row, 1u);
}

}  // namespace
}  // namespace prcost
