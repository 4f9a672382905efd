#include <gtest/gtest.h>

#include <cstddef>
#include <string_view>

#include "bitstream/generator.hpp"
#include "bitstream/parser.hpp"
#include "cost/shaped_prr.hpp"
#include "device/device_db.hpp"
#include "obs/obs.hpp"
#include "paperdata/paper_dataset.hpp"
#include "util/error.hpp"

namespace prcost {
namespace {

const Fabric& lx110t() {
  return DeviceDb::instance().get("xc5vlx110t").fabric;
}

ShapedPrr two_band_shape() {
  // 4-row (2 CLB + 1 DSP) band under a 1-row (1 CLB) band.
  ShapedPrr shape;
  shape.bands.push_back(
      PrrBand{PrrOrganization{4, ColumnDemand{2, 1, 0}}, ColumnWindow{24, 3},
              0});
  shape.bands.push_back(
      PrrBand{PrrOrganization{1, ColumnDemand{1, 0, 0}}, ColumnWindow{24, 1},
              4});
  return shape;
}

TEST(ShapedPrr, SizeAndHeight) {
  const ShapedPrr shape = two_band_shape();
  EXPECT_EQ(shape.size(), 4u * 3 + 1u * 1);
  EXPECT_EQ(shape.height(), 5u);
}

TEST(ShapedPrr, AvailabilitySumsBands) {
  const ShapedPrr shape = two_band_shape();
  const PrrAvailability a =
      shaped_availability(shape, lx110t().traits());
  EXPECT_EQ(a.clbs, 4u * 2 * 20 + 1u * 1 * 20);  // 180
  EXPECT_EQ(a.dsps, 4u * 1 * 8);                 // 32
  EXPECT_EQ(a.brams, 0u);
}

TEST(ShapedPrr, BitstreamGeneralizesEq18) {
  const ShapedPrr shape = two_band_shape();
  const FamilyTraits& t = lx110t().traits();
  const BitstreamEstimate e = estimate_shaped_bitstream(shape, t);
  // Band 1: 4 rows of (2*36 + 28 + 1)*41 + 5 words; band 2: 1 row of
  // (36 + 1)*41 + 5 words; plus IW/FW.
  const u64 band1_row = 5u + (2 * 36 + 28 + 1) * 41;
  const u64 band2_row = 5u + (36 + 1) * 41;
  EXPECT_EQ(e.total_words, t.iw + 4 * band1_row + band2_row + t.fw);
  EXPECT_EQ(e.total_bytes, e.total_words * 4);
  EXPECT_THROW(estimate_shaped_bitstream(ShapedPrr{}, t), ContractError);
}

TEST(ShapedPrr, GeneratorMatchesModelByteForByte) {
  // The same model-vs-artifact loop as Eq. (18), for the shaped extension.
  const ShapedPrr shape = two_band_shape();
  const auto words = generate_shaped_bitstream(shape, Family::kVirtex5);
  const BitstreamEstimate e =
      estimate_shaped_bitstream(shape, lx110t().traits());
  EXPECT_EQ(words.size(), e.total_words);
  EXPECT_EQ(to_bytes(words, Family::kVirtex5).size(), e.total_bytes);
  const BitstreamLayout layout = parse_bitstream(words, Family::kVirtex5);
  EXPECT_TRUE(layout.crc_ok);
  EXPECT_TRUE(layout.desync_seen);
  // One config burst per band row: 4 + 1 = 5 bursts.
  EXPECT_EQ(layout.config_burst_count(), 5u);
  EXPECT_THROW(generate_shaped_bitstream(ShapedPrr{}, Family::kVirtex5),
               ContractError);
}

TEST(ShapedPrr, GeneratorTracesAsBitstreamGenShaped) {
  // perfbench attributes every "bitstream_gen*" span to its bitstream
  // layer; the shaped generator must keep reporting under that name.
  obs::clear_trace();
  obs::set_tracing(true);
  const auto words = generate_shaped_bitstream(two_band_shape(),
                                               Family::kVirtex5);
  obs::set_tracing(false);
  EXPECT_FALSE(words.empty());
  std::size_t spans = 0;
  for (const auto& span : obs::trace_spans()) {
    if (std::string_view{span.name} == "bitstream_gen_shaped") ++spans;
  }
  EXPECT_EQ(spans, 1u);
  obs::clear_trace();
}

TEST(ShapedPrr, SearchedShapeGeneratesExactly) {
  const auto& rec = paperdata::table5_record("FIR", "xc5vlx110t");
  const auto shaped = find_l_shaped_prr(rec.req, lx110t());
  ASSERT_TRUE(shaped.has_value());
  const auto words =
      generate_shaped_bitstream(shaped->shape, Family::kVirtex5);
  EXPECT_EQ(words.size(), shaped->bitstream.total_words);
}

TEST(ShapedSearch, FirOnLx110tBeatsRectangle) {
  // The paper's suggested win: FIR's rectangular optimum is 15 cells /
  // 83,064 B; an L-shape that gives the DSP column only the 4 rows it
  // needs must beat both numbers.
  const auto& rec = paperdata::table5_record("FIR", "xc5vlx110t");
  const auto rect = find_prr(rec.req, lx110t());
  ASSERT_TRUE(rect.has_value());
  const auto shaped = find_l_shaped_prr(rec.req, lx110t());
  ASSERT_TRUE(shaped.has_value());
  EXPECT_LT(shaped->shape.size(), rect->organization.size());
  EXPECT_LT(shaped->bitstream.total_bytes, rect->bitstream.total_bytes);
  // Higher CLB utilization = lower internal fragmentation.
  EXPECT_GT(shaped->ru.clb, rect->ru.clb);
  // Demand still covered.
  EXPECT_GE(shaped->available.dsps, rec.req.dsps);
  EXPECT_GE(shaped->available.clbs,
            clb_req(rec.req, lx110t().traits()));
}

TEST(ShapedSearch, BandsAreConnected) {
  const auto& rec = paperdata::table5_record("FIR", "xc5vlx110t");
  const auto shaped = find_l_shaped_prr(rec.req, lx110t());
  ASSERT_TRUE(shaped.has_value());
  ASSERT_EQ(shaped->shape.bands.size(), 2u);
  const auto& b0 = shaped->shape.bands[0];
  const auto& b1 = shaped->shape.bands[1];
  // Vertically stacked...
  EXPECT_EQ(b1.first_row, b0.first_row + b0.organization.h);
  // ...with overlapping column ranges (a connected L/T shape).
  EXPECT_LT(b0.window.first_col, b1.window.first_col + b1.window.width);
  EXPECT_LT(b1.window.first_col, b0.window.first_col + b0.window.width);
}

TEST(ShapedSearch, PureLogicPrmGainsNothing) {
  // SDRAM (CLB-only) has no fragmentation for an L-shape to recover; the
  // rectangular optimum is already minimal.
  const auto& rec = paperdata::table5_record("SDRAM", "xc5vlx110t");
  const auto rect = find_prr(rec.req, lx110t());
  const auto shaped = find_l_shaped_prr(rec.req, lx110t());
  ASSERT_TRUE(rect.has_value());
  if (shaped) {
    EXPECT_GE(shaped->shape.size(), rect->organization.size());
  }
}

TEST(ShapedSearch, EmptyRequirementsGiveNothing) {
  EXPECT_FALSE(find_l_shaped_prr(PrmRequirements{}, lx110t()).has_value());
}

TEST(ShapedSearch, WorksAcrossCatalog) {
  PrmRequirements req;
  req.lut_ff_pairs = 900;
  req.dsps = 20;
  for (const Device& device : DeviceDb::instance().all()) {
    const auto shaped = find_l_shaped_prr(req, device.fabric);
    if (!shaped) continue;  // some fabrics have no overlapping window pair
    EXPECT_GE(shaped->available.dsps, req.dsps) << device.name;
    EXPECT_GE(shaped->available.clbs,
              clb_req(req, device.fabric.traits()))
        << device.name;
  }
}

}  // namespace
}  // namespace prcost
