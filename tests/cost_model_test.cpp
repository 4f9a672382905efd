// Unit tests for the paper's equations (1)-(23) with hand-computed values.
#include <gtest/gtest.h>

#include "cost/bitstream_model.hpp"
#include "cost/prr_model.hpp"
#include "tests/support/satisfies.hpp"
#include "util/error.hpp"

namespace prcost {
namespace {

const FamilyTraits& v5() { return traits(Family::kVirtex5); }
const FamilyTraits& v6() { return traits(Family::kVirtex6); }

// ------------------------------------------------------------- Eq. (1) ---

TEST(Eq1, ClbReqCeils) {
  // Paper Table V: FIR on Virtex-5, LUT_FF_req = 1300 -> CLB_req = 163.
  PrmRequirements req;
  req.lut_ff_pairs = 1300;
  EXPECT_EQ(clb_req(req, v5()), 163u);
  req.lut_ff_pairs = 1304;  // exactly 163 CLBs
  EXPECT_EQ(clb_req(req, v5()), 163u);
  req.lut_ff_pairs = 1305;
  EXPECT_EQ(clb_req(req, v5()), 164u);
  req.lut_ff_pairs = 0;
  EXPECT_EQ(clb_req(req, v5()), 0u);
}

// -------------------------------------------------------- Eqs. (2)-(5) ---

TEST(Organization, Eq2ClbColumns) {
  PrmRequirements req;
  req.lut_ff_pairs = 1300;  // CLB_req = 163
  // H = 5: W_CLB = ceil(163 / (5 * 20)) = 2 (the paper's FIR/LX110T row).
  const auto org = organization_for_height(req, v5(), 5, false);
  ASSERT_TRUE(org.has_value());
  EXPECT_EQ(org->columns.clb_cols, 2u);
  // H = 1: ceil(163/20) = 9.
  EXPECT_EQ(organization_for_height(req, v5(), 1, false)->columns.clb_cols,
            9u);
}

TEST(Organization, Eq3DspColumnsMultiColumn) {
  PrmRequirements req;
  req.lut_ff_pairs = 8;
  req.dsps = 27;
  // Virtex-6, H=1: W_DSP = ceil(27 / (1*16)) = 2 (paper's FIR/LX75T).
  const auto org = organization_for_height(req, v6(), 1, false);
  ASSERT_TRUE(org.has_value());
  EXPECT_EQ(org->columns.dsp_cols, 2u);
}

TEST(Organization, Eq4SingleDspColumnPinsWidth) {
  PrmRequirements req;
  req.lut_ff_pairs = 8;
  req.dsps = 32;
  // Single-DSP-column device (LX110T): W_DSP = 1 and H must cover the
  // demand: H_DSP = ceil(32/8) = 4.
  EXPECT_FALSE(organization_for_height(req, v5(), 3, true).has_value());
  const auto org = organization_for_height(req, v5(), 4, true);
  ASSERT_TRUE(org.has_value());
  EXPECT_EQ(org->columns.dsp_cols, 1u);
  // Multi-column mode at H=3 would instead widen: ceil(32/(3*8)) = 2.
  EXPECT_EQ(organization_for_height(req, v5(), 3, false)->columns.dsp_cols,
            2u);
}

TEST(Organization, Eq5BramColumns) {
  PrmRequirements req;
  req.lut_ff_pairs = 8;
  req.brams = 6;
  // Virtex-5, H=1: W_BRAM = ceil(6/(1*4)) = 2 (paper's MIPS/LX110T).
  EXPECT_EQ(organization_for_height(req, v5(), 1, false)->columns.bram_cols,
            2u);
  // Virtex-6, H=1: ceil(6/8) = 1 (paper's MIPS/LX75T).
  EXPECT_EQ(organization_for_height(req, v6(), 1, false)->columns.bram_cols,
            1u);
}

TEST(Organization, ZeroHeightThrows) {
  PrmRequirements req;
  req.lut_ff_pairs = 1;
  EXPECT_THROW(organization_for_height(req, v5(), 0, false), ContractError);
}

TEST(Organization, EmptyPrmHasNoOrganization) {
  EXPECT_FALSE(
      organization_for_height(PrmRequirements{}, v5(), 1, false).has_value());
}

TEST(Organization, Eq6Eq7WidthAndSize) {
  PrrOrganization org;
  org.h = 5;
  org.columns = ColumnDemand{2, 1, 0};
  EXPECT_EQ(org.width(), 3u);   // Eq. (6)
  EXPECT_EQ(org.size(), 15u);   // Eq. (7)
}

// ------------------------------------------------------- Eqs. (8)-(12) ---

TEST(Availability, PaperFirRow) {
  PrrOrganization org;
  org.h = 5;
  org.columns = ColumnDemand{2, 1, 0};
  const PrrAvailability a = availability(org, v5());
  EXPECT_EQ(a.clbs, 200u);   // 5*2*20
  EXPECT_EQ(a.ffs, 1600u);   // 200*8
  EXPECT_EQ(a.luts, 1600u);  // 200*8
  EXPECT_EQ(a.dsps, 40u);    // 5*1*8
  EXPECT_EQ(a.brams, 0u);
}

TEST(Availability, Virtex6FfDoubling) {
  PrrOrganization org;
  org.h = 1;
  org.columns = ColumnDemand{5, 2, 0};
  const PrrAvailability a = availability(org, v6());
  EXPECT_EQ(a.clbs, 200u);   // 1*5*40
  EXPECT_EQ(a.ffs, 3200u);   // FF_CLB = 16
  EXPECT_EQ(a.luts, 1600u);
  EXPECT_EQ(a.dsps, 32u);    // 1*2*16
}

// ------------------------------------------------------ Eqs. (13)-(17) ---

TEST(Utilization, PaperFirRow) {
  PrmRequirements req{1300, 1150, 394, 32, 0};
  PrrOrganization org;
  org.h = 5;
  org.columns = ColumnDemand{2, 1, 0};
  const ResourceUtilization ru = utilization(req, availability(org, v5()), v5());
  EXPECT_NEAR(ru.clb, 81.5, 0.01);   // 163/200
  EXPECT_NEAR(ru.ff, 24.625, 0.01);  // 394/1600
  EXPECT_NEAR(ru.lut, 71.875, 0.01); // 1150/1600
  EXPECT_NEAR(ru.dsp, 80.0, 0.01);   // 32/40
  EXPECT_DOUBLE_EQ(ru.bram, 0.0);    // no BRAM in the PRR -> 0%
}

TEST(Utilization, OverOneHundredSignalsInfeasible) {
  PrmRequirements req{300, 250, 200, 0, 0};  // CLB_req = 38
  PrrOrganization org;
  org.h = 1;
  org.columns = ColumnDemand{1, 0, 0};  // 20 CLBs only
  const ResourceUtilization ru = utilization(req, availability(org, v5()), v5());
  EXPECT_GT(ru.clb, 100.0);
}

// ------------------------------------------------------ Eqs. (18)-(23) ---

TEST(BitstreamModel, HandComputedNoBram) {
  // FIR/LX110T organization: H=5, W_CLB=2, W_DSP=1, W_BRAM=0.
  PrrOrganization org;
  org.h = 5;
  org.columns = ColumnDemand{2, 1, 0};
  const BitstreamEstimate e = estimate_bitstream(org, v5());
  // NCF = 2*36 + 1*28 = 100; +1 flush frame = 101 frames/row.
  EXPECT_EQ(e.config_frames_per_row, 101u);
  // NCW_row = 5 + 101*41 = 4146.
  EXPECT_EQ(e.config_words_per_row, 4146u);
  EXPECT_EQ(e.bram_words_per_row, 0u);  // Eq. (23) vanishes without BRAM
  // S = (21 + 5*4146 + 15) * 4 = 82 9 64... = 83064 bytes.
  EXPECT_EQ(e.total_words, 21u + 5 * 4146 + 15);
  EXPECT_EQ(e.total_bytes, 83064u);
}

TEST(BitstreamModel, HandComputedWithBram) {
  // MIPS/LX110T: H=1, W_CLB=17, W_DSP=1, W_BRAM=2.
  PrrOrganization org;
  org.h = 1;
  org.columns = ColumnDemand{17, 1, 2};
  const BitstreamEstimate e = estimate_bitstream(org, v5());
  // NCF = 17*36 + 28 + 2*30 = 700; +1 = 701 frames.
  EXPECT_EQ(e.config_frames_per_row, 701u);
  EXPECT_EQ(e.config_words_per_row, 5u + 701 * 41);
  // NDW = 5 + (2*128 + 1)*41 = 5 + 257*41 = 10542.
  EXPECT_EQ(e.bram_words_per_row, 10542u);
  EXPECT_EQ(e.total_bytes,
            (21u + 1 * (e.config_words_per_row + 10542) + 15) * 4);
}

TEST(BitstreamModel, ScalesLinearlyWithHeight) {
  PrrOrganization org;
  org.columns = ColumnDemand{3, 0, 0};
  org.h = 1;
  const u64 bytes1 = estimate_bitstream(org, v5()).total_bytes;
  org.h = 2;
  const u64 bytes2 = estimate_bitstream(org, v5()).total_bytes;
  org.h = 4;
  const u64 bytes4 = estimate_bitstream(org, v5()).total_bytes;
  const FamilyTraits& t = v5();
  const u64 fixed = u64{t.iw + t.fw} * t.bytes_word;
  EXPECT_EQ(bytes2 - fixed, 2 * (bytes1 - fixed));
  EXPECT_EQ(bytes4 - fixed, 4 * (bytes1 - fixed));
}

TEST(BitstreamModel, RejectsEmptyOrganizations) {
  PrrOrganization org;  // h == 0
  EXPECT_THROW(estimate_bitstream(org, v5()), ContractError);
  org.h = 1;  // width == 0
  EXPECT_THROW(estimate_bitstream(org, v5()), ContractError);
}

TEST(BitstreamModel, WiderFramesOnVirtex6) {
  // Same organization costs more bytes on Virtex-6 (81- vs 41-word frames).
  PrrOrganization org;
  org.h = 1;
  org.columns = ColumnDemand{2, 0, 0};
  EXPECT_GT(estimate_bitstream(org, v6()).total_bytes,
            estimate_bitstream(org, v5()).total_bytes);
}

TEST(Satisfies, ChecksEveryResource) {
  PrmRequirements req{1300, 1150, 394, 32, 0};
  PrrOrganization org;
  org.h = 5;
  org.columns = ColumnDemand{2, 1, 0};
  EXPECT_TRUE(satisfies(org, req, v5()));
  org.h = 4;  // 32 DSPs need 4 rows of the single column: 4*8 = 32, ok
  org.columns = ColumnDemand{3, 1, 0};
  EXPECT_TRUE(satisfies(org, req, v5()));
  org.columns = ColumnDemand{1, 1, 0};  // 80 CLBs < 163
  EXPECT_FALSE(satisfies(org, req, v5()));
}

}  // namespace
}  // namespace prcost
