#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <string>
#include <utility>

#include "device/column.hpp"
#include "device/device_db.hpp"
#include "device/fabric.hpp"
#include "device/family_traits.hpp"
#include "util/error.hpp"

namespace prcost {
namespace {

// ------------------------------------------------- family traits (II/IV) ---

TEST(FamilyTraits, TableIIVirtex5) {
  // Values stated in the paper's Section III.A prose.
  const FamilyTraits& t = traits(Family::kVirtex5);
  EXPECT_EQ(t.clb_col, 20u);   // 20 CLBs per column-row
  EXPECT_EQ(t.dsp_col, 8u);    // 8 DSPs per column-row
  EXPECT_EQ(t.bram_col, 4u);   // 4 BRAMs per column-row
  EXPECT_EQ(t.lut_clb, 8u);    // 2 slices x 4 LUTs
  EXPECT_EQ(t.ff_clb, 8u);     // 2 slices x 4 FFs
}

TEST(FamilyTraits, TableIVVirtex5) {
  const FamilyTraits& t = traits(Family::kVirtex5);
  EXPECT_EQ(t.cf_clb, 36u);    // paper: CLB columns have 36 frames
  EXPECT_EQ(t.cf_dsp, 28u);
  EXPECT_EQ(t.cf_bram, 30u);
  EXPECT_EQ(t.cf_iob, 54u);
  EXPECT_EQ(t.cf_clk, 4u);
  EXPECT_EQ(t.df_bram, 128u);  // paper: 128 data frames per BRAM column
  EXPECT_EQ(t.frame_size, 41u);
  EXPECT_EQ(t.bytes_word, 4u);
}

TEST(FamilyTraits, Virtex6DoublesDensities) {
  const FamilyTraits& v5 = traits(Family::kVirtex5);
  const FamilyTraits& v6 = traits(Family::kVirtex6);
  EXPECT_EQ(v6.clb_col, 2 * v5.clb_col);
  EXPECT_EQ(v6.dsp_col, 2 * v5.dsp_col);
  EXPECT_EQ(v6.bram_col, 2 * v5.bram_col);
  EXPECT_EQ(v6.ff_clb, 16u);  // Virtex-6 slices have 8 FFs
}

TEST(FamilyTraits, SlicesPerClb) {
  EXPECT_EQ(traits(Family::kVirtex5).luts_per_slice(), 4u);
  EXPECT_EQ(traits(Family::kVirtex6).ffs_per_slice(), 8u);
}

TEST(FamilyTraits, AllFamiliesHaveSaneBitstreamConstants) {
  for (const Family family : kAllFamilies) {
    const FamilyTraits& t = traits(family);
    EXPECT_GT(t.frame_size, 0u) << family_name(family);
    EXPECT_GT(t.iw, 0u);
    EXPECT_GT(t.fw, 0u);
    EXPECT_EQ(t.far_fdri, 5u);  // NOOP + FAR(2) + FDRI hdr + type-2 hdr
    // Virtex/7-series words are 32-bit; Spartan-6 is the paper's 16-bit
    // Bytes_word case.
    EXPECT_EQ(t.bytes_word, family == Family::kSpartan6 ? 2u : 4u);
  }
}

TEST(FamilyTraits, Spartan6SixteenBitWords) {
  const FamilyTraits& t = traits(Family::kSpartan6);
  EXPECT_EQ(t.bytes_word, 2u);
  EXPECT_EQ(t.frame_size, 65u);
  EXPECT_EQ(parse_family("spartan-6"), Family::kSpartan6);
}

TEST(ParseFamily, AcceptsAliases) {
  EXPECT_EQ(parse_family("virtex5"), Family::kVirtex5);
  EXPECT_EQ(parse_family("Virtex-6"), Family::kVirtex6);
  EXPECT_EQ(parse_family("V4"), Family::kVirtex4);
  EXPECT_EQ(parse_family("7-series"), Family::kSeries7);
}

TEST(ParseFamily, UnknownThrows) {
  EXPECT_THROW(parse_family("spartan3"), ContractError);
}

TEST(FamilyName, RoundTripsThroughParse) {
  for (const Family family : kAllFamilies) {
    EXPECT_EQ(parse_family(family_name(family)), family);
  }
}

// --------------------------------------------------------------- columns ---

TEST(Column, CodesRoundTrip) {
  // The one-letter fabric pattern codes of the device catalog.
  constexpr std::pair<char, ColumnType> kCodes[] = {
      {'C', ColumnType::kClb}, {'D', ColumnType::kDsp},
      {'B', ColumnType::kBram}, {'I', ColumnType::kIob},
      {'K', ColumnType::kClk}};
  std::string pattern;
  for (const auto& [code, type] : kCodes) {
    EXPECT_EQ(parse_column_code(code), type) << code;
    pattern += code;
  }
  const Fabric fabric{Family::kVirtex5, pattern, 1};
  ASSERT_EQ(fabric.num_columns(), std::size(kCodes));
  for (u32 c = 0; c < fabric.num_columns(); ++c) {
    EXPECT_EQ(fabric.column(c), kCodes[c].second) << c;
  }
  EXPECT_THROW(parse_column_code('c'), ContractError);  // case-sensitive
}

TEST(Column, PrrCapability) {
  EXPECT_TRUE(prr_capable(ColumnType::kClb));
  EXPECT_TRUE(prr_capable(ColumnType::kDsp));
  EXPECT_TRUE(prr_capable(ColumnType::kBram));
  EXPECT_FALSE(prr_capable(ColumnType::kIob));
  EXPECT_FALSE(prr_capable(ColumnType::kClk));
}

TEST(Column, ResourcesPerRow) {
  const FamilyTraits& t = traits(Family::kVirtex5);
  EXPECT_EQ(resources_per_row(ColumnType::kClb, t), 20u);
  EXPECT_EQ(resources_per_row(ColumnType::kIob, t), 0u);
}

TEST(Column, ConfigFrames) {
  const FamilyTraits& t = traits(Family::kVirtex5);
  EXPECT_EQ(config_frames(ColumnType::kClb, t), 36u);
  EXPECT_EQ(config_frames(ColumnType::kClk, t), 4u);
}

// ---------------------------------------------------------------- fabric ---

TEST(Fabric, ConstructionAndCounts) {
  const Fabric fabric{Family::kVirtex5, "CCBDCIK", 4};
  EXPECT_EQ(fabric.rows(), 4u);
  EXPECT_EQ(fabric.num_columns(), 7u);
  EXPECT_EQ(fabric.column_count(ColumnType::kClb), 3u);
  EXPECT_EQ(fabric.column_count(ColumnType::kBram), 1u);
  EXPECT_EQ(fabric.column_count(ColumnType::kDsp), 1u);
  EXPECT_EQ(fabric.column(5), ColumnType::kIob);
  EXPECT_EQ(fabric.column(6), ColumnType::kClk);
}

TEST(Fabric, RejectsBadInput) {
  EXPECT_THROW((Fabric{Family::kVirtex5, "", 1}), ContractError);
  EXPECT_THROW((Fabric{Family::kVirtex5, "CC", 0}), ContractError);
  EXPECT_THROW((Fabric{Family::kVirtex5, "CXC", 2}), ContractError);
}

TEST(Fabric, TotalResources) {
  const Fabric fabric{Family::kVirtex5, "CCB", 2};
  EXPECT_EQ(fabric.total_resources(ColumnType::kClb), 2u * 2 * 20);
  EXPECT_EQ(fabric.total_resources(ColumnType::kBram), 1u * 2 * 4);
}

TEST(Fabric, FindWindowExactComposition) {
  const Fabric fabric{Family::kVirtex5, "CCBCCDCC", 2};
  const auto window = fabric.find_window(ColumnDemand{2, 1, 0});
  ASSERT_TRUE(window.has_value());
  // Left-most 3-wide window with exactly 2 CLB + 1 DSP: columns 3..5
  // ("CCD").
  EXPECT_EQ(window->first_col, 3u);
  EXPECT_EQ(window->width, 3u);
}

TEST(Fabric, FindWindowRejectsBlockedColumns) {
  const Fabric fabric{Family::kVirtex5, "CCICC", 2};
  // Any 3-wide all-CLB window would have to span the IOB column.
  EXPECT_FALSE(fabric.find_window(ColumnDemand{3, 0, 0}).has_value());
  EXPECT_TRUE(fabric.find_window(ColumnDemand{2, 0, 0}).has_value());
}

TEST(Fabric, FindWindowZeroOrTooWide) {
  const Fabric fabric{Family::kVirtex5, "CCC", 1};
  EXPECT_FALSE(fabric.find_window(ColumnDemand{0, 0, 0}).has_value());
  EXPECT_FALSE(fabric.find_window(ColumnDemand{4, 0, 0}).has_value());
}

TEST(Fabric, FindAllWindowsEnumeratesEveryStart) {
  const Fabric fabric{Family::kVirtex5, "CCCC", 1};
  const auto windows = fabric.exact_windows(ColumnDemand{2, 0, 0});
  ASSERT_EQ(windows->size(), 3u);
  EXPECT_EQ((*windows)[0].first_col, 0u);
  EXPECT_EQ((*windows)[2].first_col, 2u);
}

TEST(Fabric, SupersetWindowAllowsSurplusColumns) {
  const Fabric fabric{Family::kVirtex5, "CCBCDCC", 2};
  // 4 CLB + 1 DSP has no exact 5-wide window (the span around the DSP
  // always carries the BRAM column), but a 6-wide superset does.
  EXPECT_FALSE(fabric.find_window(ColumnDemand{4, 1, 0}).has_value());
  EXPECT_TRUE(fabric.superset_windows(ColumnDemand{4, 1, 0}, 5)->empty());
  const auto windows = fabric.superset_windows(ColumnDemand{4, 1, 0}, 6);
  ASSERT_FALSE(windows->empty());
  const ColumnDemand comp = fabric.window_composition(windows->front());
  EXPECT_GE(comp.clb_cols, 4u);
  EXPECT_GE(comp.dsp_cols, 1u);
}

TEST(Fabric, SupersetNeverCrossesBlockedColumns) {
  const Fabric fabric{Family::kVirtex5, "CCICC", 1};
  for (u32 width = 3; width <= fabric.num_columns(); ++width) {
    EXPECT_TRUE(fabric.superset_windows(ColumnDemand{3, 0, 0}, width)->empty())
        << width;
  }
}

TEST(Fabric, SupersetPrefersSmallestThenLeftmost) {
  // Callers widen from the demand's own width, so the first window of the
  // first non-empty list is the smallest, then left-most, superset.
  const Fabric fabric{Family::kVirtex5, "CCCDCC", 1};
  EXPECT_TRUE(fabric.superset_windows(ColumnDemand{1, 1, 0}, 1)->empty());
  const auto windows = fabric.superset_windows(ColumnDemand{1, 1, 0}, 2);
  ASSERT_EQ(windows->size(), 2u);
  EXPECT_EQ(windows->front().width, 2u);
  EXPECT_EQ(windows->front().first_col, 2u);  // "CD" at columns 2..3
  EXPECT_EQ((*windows)[1].first_col, 3u);     // "DC" at columns 3..4
}

TEST(Fabric, ExactWindowsIsMemoizedAndShared) {
  const Fabric fabric{Family::kVirtex5, "CCDCCBCC", 1};
  const auto first = fabric.exact_windows(ColumnDemand{2, 1, 0});
  const auto again = fabric.exact_windows(ColumnDemand{2, 1, 0});
  // One scan per distinct demand: the repeat call hands out the same list.
  EXPECT_EQ(first.get(), again.get());
  const auto other = fabric.exact_windows(ColumnDemand{2, 0, 0});
  EXPECT_NE(first.get(), other.get());
  ASSERT_EQ(first->size(), 3u);  // "CCD", "CDC", "DCC"
  ASSERT_EQ(other->size(), 3u);  // "CC" at columns 0, 3 and 6
  EXPECT_EQ((*first)[1].first_col, 1u);
  EXPECT_EQ((*other)[1].first_col, 3u);
}

TEST(Fabric, SupersetWindowsIsMemoizedPerWidth) {
  const Fabric fabric{Family::kVirtex5, "CCDCCBCC", 1};
  const ColumnDemand demand{1, 1, 0};
  const auto w2 = fabric.superset_windows(demand, 2);
  EXPECT_EQ(w2.get(), fabric.superset_windows(demand, 2).get());
  const auto w3 = fabric.superset_windows(demand, 3);
  EXPECT_NE(w2.get(), w3.get());
  for (const ColumnWindow& w : *w2) EXPECT_EQ(w.width, 2u);
  for (const ColumnWindow& w : *w3) EXPECT_EQ(w.width, 3u);
}

TEST(Fabric, SupersetWindowsOutOfRangeWidthsAreEmpty) {
  const Fabric fabric{Family::kVirtex5, "CCDCC", 1};
  // Narrower than the demand, zero, or wider than the fabric: no window.
  EXPECT_TRUE(fabric.superset_windows(ColumnDemand{2, 1, 0}, 2)->empty());
  EXPECT_TRUE(fabric.superset_windows(ColumnDemand{0, 0, 0}, 0)->empty());
  EXPECT_TRUE(fabric.superset_windows(ColumnDemand{1, 0, 0}, 6)->empty());
  EXPECT_EQ(fabric.superset_windows(ColumnDemand{1, 0, 0}, 5)->size(), 1u);
}

// Demands every catalog fabric is probed with below: CLB-only spans, a DSP
// column, a BRAM column, and both.
constexpr ColumnDemand kProbeDemands[] = {
    {1, 0, 0}, {3, 0, 0}, {2, 1, 0}, {2, 0, 1}, {4, 1, 1}, {6, 2, 2}};

TEST(Fabric, FindWindowIsFrontOfExactWindows) {
  for (const Device& dev : DeviceDb::instance().all()) {
    for (const ColumnDemand& demand : kProbeDemands) {
      const auto windows = dev.fabric.exact_windows(demand);
      const auto window = dev.fabric.find_window(demand);
      ASSERT_EQ(window.has_value(), !windows->empty()) << dev.name;
      if (window) {
        EXPECT_EQ(window->first_col, windows->front().first_col) << dev.name;
        EXPECT_EQ(window->width, windows->front().width) << dev.name;
      }
    }
  }
}

TEST(Fabric, WindowListsHoldTheirDemandOnCatalogDevices) {
  for (const Device& dev : DeviceDb::instance().all()) {
    for (const ColumnDemand& demand : kProbeDemands) {
      const auto exact = dev.fabric.exact_windows(demand);
      for (std::size_t i = 0; i < exact->size(); ++i) {
        const ColumnWindow& w = (*exact)[i];
        EXPECT_EQ(w.width, demand.width()) << dev.name;
        const ColumnDemand comp = dev.fabric.window_composition(w);
        EXPECT_EQ(comp.clb_cols, demand.clb_cols) << dev.name;
        EXPECT_EQ(comp.dsp_cols, demand.dsp_cols) << dev.name;
        EXPECT_EQ(comp.bram_cols, demand.bram_cols) << dev.name;
        if (i > 0) {
          EXPECT_LT((*exact)[i - 1].first_col, w.first_col) << dev.name;
        }
      }
      const u32 width = demand.width() + 2;
      const auto superset = dev.fabric.superset_windows(demand, width);
      for (std::size_t i = 0; i < superset->size(); ++i) {
        const ColumnWindow& w = (*superset)[i];
        EXPECT_EQ(w.width, width) << dev.name;
        const ColumnDemand comp = dev.fabric.window_composition(w);
        EXPECT_GE(comp.clb_cols, demand.clb_cols) << dev.name;
        EXPECT_GE(comp.dsp_cols, demand.dsp_cols) << dev.name;
        EXPECT_GE(comp.bram_cols, demand.bram_cols) << dev.name;
        if (i > 0) {
          EXPECT_LT((*superset)[i - 1].first_col, w.first_col) << dev.name;
        }
      }
    }
  }
}

TEST(Fabric, ExactWindowsAreSupersetWindowsAtDemandWidth) {
  for (const Device& dev : DeviceDb::instance().all()) {
    for (const ColumnDemand& demand : kProbeDemands) {
      const auto exact = dev.fabric.exact_windows(demand);
      const auto superset = dev.fabric.superset_windows(demand, demand.width());
      for (const ColumnWindow& w : *exact) {
        const bool listed =
            std::any_of(superset->begin(), superset->end(),
                        [&](const ColumnWindow& s) {
                          return s.first_col == w.first_col &&
                                 s.width == w.width;
                        });
        EXPECT_TRUE(listed) << dev.name << " col " << w.first_col;
      }
    }
  }
}

TEST(Fabric, WindowCompositionIgnoresNothingInRange) {
  const Fabric fabric{Family::kVirtex5, "CDBCB", 1};
  const ColumnDemand comp = fabric.window_composition(ColumnWindow{0, 5});
  EXPECT_EQ(comp.clb_cols, 2u);
  EXPECT_EQ(comp.dsp_cols, 1u);
  EXPECT_EQ(comp.bram_cols, 2u);
  EXPECT_THROW(fabric.window_composition(ColumnWindow{3, 5}), ContractError);
}

// ------------------------------------------------------------- device db ---

TEST(DeviceDb, ContainsPaperDevices) {
  const DeviceDb& db = DeviceDb::instance();
  EXPECT_EQ(db.get("xc5vlx110t").name, "xc5vlx110t");
  EXPECT_EQ(db.get("XC6VLX75T").name, "xc6vlx75t");  // case-insensitive
  EXPECT_THROW(db.get("xc2v1000"), ContractError);
}

TEST(DeviceDb, Lx110tMatchesPublishedGeometry) {
  const Device& dev = DeviceDb::instance().get("xc5vlx110t");
  EXPECT_EQ(dev.fabric.family(), Family::kVirtex5);
  EXPECT_EQ(dev.fabric.rows(), 8u);  // paper: "the Virtex-5 LX110T has 8 rows"
  // Exactly one DSP column: the reason the paper uses Eq. (4) on this part.
  EXPECT_EQ(dev.fabric.column_count(ColumnType::kDsp), 1u);
  EXPECT_EQ(dev.fabric.total_resources(ColumnType::kDsp), 64u);
  EXPECT_EQ(dev.fabric.total_resources(ColumnType::kClb), 8640u);
  EXPECT_EQ(dev.fabric.total_resources(ColumnType::kClb) *
                dev.fabric.traits().lut_clb,
            69120u);  // published LUT count
}

TEST(DeviceDb, Lx75tMatchesPublishedGeometry) {
  const Device& dev = DeviceDb::instance().get("xc6vlx75t");
  EXPECT_EQ(dev.fabric.family(), Family::kVirtex6);
  EXPECT_EQ(dev.fabric.rows(), 3u);  // paper: "the Virtex-6 LX75T has 3 rows"
  EXPECT_EQ(dev.fabric.total_resources(ColumnType::kDsp), 288u);  // published
  EXPECT_GT(dev.fabric.column_count(ColumnType::kDsp), 1u);
}

TEST(DeviceDb, AllDevicesValidateInternally) {
  for (const Device& dev : DeviceDb::instance().all()) {
    EXPECT_GT(dev.fabric.rows(), 0u) << dev.name;
    EXPECT_GT(dev.fabric.column_count(ColumnType::kClb), 0u) << dev.name;
    // Every catalog fabric keeps IOB/CLK out of at least one wide
    // PR-capable stretch.
    EXPECT_TRUE(dev.fabric.find_window(ColumnDemand{3, 0, 0}).has_value())
        << dev.name;
  }
}

TEST(MakeRegularPattern, CountsMatchRequest) {
  const std::string pattern = make_regular_pattern(40, 2, 4, 3, 1);
  const Fabric fabric{Family::kVirtex5, pattern, 1};
  EXPECT_EQ(fabric.column_count(ColumnType::kClb), 40u);
  EXPECT_EQ(fabric.column_count(ColumnType::kDsp), 2u);
  EXPECT_EQ(fabric.column_count(ColumnType::kBram), 4u);
  EXPECT_EQ(fabric.column_count(ColumnType::kIob), 3u);
  EXPECT_EQ(fabric.column_count(ColumnType::kClk), 1u);
}

TEST(MakeRegularPattern, NoClbThrows) {
  EXPECT_THROW(make_regular_pattern(0, 1, 1, 1, 1), ContractError);
}

}  // namespace
}  // namespace prcost
