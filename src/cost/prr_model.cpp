#include "cost/prr_model.hpp"

#include "util/error.hpp"

namespace prcost {

u64 clb_req(const PrmRequirements& req, const FamilyTraits& t) {
  if (req.lut_ff_pairs == 0) return 0;
  return ceil_div(req.lut_ff_pairs, t.lut_clb);  // Eq. (1)
}

PrrAvailability availability(const PrrOrganization& org,
                             const FamilyTraits& t) {
  PrrAvailability a;
  a.clbs = checked_mul(checked_mul(org.h, org.columns.clb_cols), t.clb_col);
  a.ffs = checked_mul(a.clbs, t.ff_clb);    // Eq. (9)
  a.luts = checked_mul(a.clbs, t.lut_clb);  // Eq. (10)
  a.dsps = checked_mul(checked_mul(org.h, org.columns.dsp_cols), t.dsp_col);
  a.brams =
      checked_mul(checked_mul(org.h, org.columns.bram_cols), t.bram_col);
  return a;
}

ResourceUtilization utilization(const PrmRequirements& req,
                                const PrrAvailability& avail,
                                const FamilyTraits& t) {
  ResourceUtilization ru;
  ru.clb = percent(clb_req(req, t), avail.clbs);  // Eq. (13)
  ru.ff = percent(req.ffs, avail.ffs);      // Eq. (14)
  ru.lut = percent(req.luts, avail.luts);   // Eq. (15)
  ru.dsp = percent(req.dsps, avail.dsps);   // Eq. (16)
  ru.bram = percent(req.brams, avail.brams);// Eq. (17)
  return ru;
}

std::optional<PrrOrganization> organization_for_height(
    const PrmRequirements& req, const FamilyTraits& t, u32 h,
    bool single_dsp_column) {
  if (h == 0) throw ContractError{"organization_for_height: h == 0"};
  PrrOrganization org;
  org.h = h;

  const u64 clbs = clb_req(req, t);
  if (clbs > 0) {
    // Eq. (2): W_CLB = ceil(CLB_req / (H * CLB_col)).
    org.columns.clb_cols =
        narrow<u32>(ceil_div(clbs, checked_mul(h, t.clb_col)));
  }
  if (req.dsps > 0) {
    if (single_dsp_column) {
      // Eq. (4): W_DSP = 1; H_DSP = ceil(DSP_req / (W_DSP * DSP_col)).
      // A rectangular PRR requires H >= H_DSP; smaller heights cannot
      // reach the demanded DSPs through the single column.
      const u64 h_dsp = ceil_div(req.dsps, t.dsp_col);
      if (h < h_dsp) return std::nullopt;
      org.columns.dsp_cols = 1;
    } else {
      // Eq. (3): W_DSP = ceil(DSP_req / (H * DSP_col)).
      org.columns.dsp_cols =
          narrow<u32>(ceil_div(req.dsps, checked_mul(h, t.dsp_col)));
    }
  }
  if (req.brams > 0) {
    // Eq. (5): W_BRAM = ceil(BRAM_req / (H * BRAM_col)).
    org.columns.bram_cols =
        narrow<u32>(ceil_div(req.brams, checked_mul(h, t.bram_col)));
  }
  if (org.width() == 0) return std::nullopt;  // empty PRM
  return org;
}

}  // namespace prcost
