// PRR size/organization cost model - the paper's first contribution
// (Section III.B, Eqs. (1)-(17) and Table I).
//
// Given a PRM's post-synthesis resource requirements, the model computes,
// for a candidate PRR height H (in fabric rows), how many CLB/DSP/BRAM
// columns the PRR needs (W_CLB, W_DSP, W_BRAM), what resources such a PRR
// makes available, and the per-resource utilization (RU) that quantifies
// internal fragmentation.
#pragma once

#include <algorithm>
#include <optional>

#include "device/fabric.hpp"
#include "device/family_traits.hpp"
#include "synth/report.hpp"

namespace prcost {

/// The model's input 5-tuple (Table I "req" parameters), normally obtained
/// from a SynthesisReport.
struct PrmRequirements {
  u64 lut_ff_pairs = 0;  ///< LUT_FF_req
  u64 luts = 0;          ///< LUT_req
  u64 ffs = 0;           ///< FF_req
  u64 dsps = 0;          ///< DSP_req
  u64 brams = 0;         ///< BRAM_req

  static PrmRequirements from_report(const SynthesisReport& report) {
    return PrmRequirements{report.lut_ff_pairs, report.slice_luts,
                           report.slice_ffs, report.dsps, report.brams};
  }

  /// The shared-PRR rule: grow to the element-wise maximum with `other`,
  /// so one PRR sized for the result hosts either PRM.
  PrmRequirements& merge(const PrmRequirements& other) {
    lut_ff_pairs = std::max(lut_ff_pairs, other.lut_ff_pairs);
    luts = std::max(luts, other.luts);
    ffs = std::max(ffs, other.ffs);
    dsps = std::max(dsps, other.dsps);
    brams = std::max(brams, other.brams);
    return *this;
  }

  bool operator==(const PrmRequirements&) const = default;
};

/// Eq. (1): CLB_req = ceil(LUT_FF_req / LUT_CLB).
u64 clb_req(const PrmRequirements& req, const FamilyTraits& t);

/// A concrete PRR shape: height H (rows) and column organization.
struct PrrOrganization {
  u32 h = 0;              ///< H: PRR height in fabric rows
  ColumnDemand columns;   ///< W_CLB / W_DSP / W_BRAM

  /// Eq. (6)/(7): W and PRR_size = H * W.
  u32 width() const { return columns.width(); }
  u64 size() const { return checked_mul(h, width()); }
};

/// Eqs. (8)-(12): resources available inside a PrrOrganization.
struct PrrAvailability {
  u64 clbs = 0;   ///< CLB_avail  (Eq. 8)
  u64 ffs = 0;    ///< FF_avail   (Eq. 9)
  u64 luts = 0;   ///< LUT_avail  (Eq. 10)
  u64 dsps = 0;   ///< DSP_avail  (Eq. 11)
  u64 brams = 0;  ///< BRAM_avail (Eq. 12)
};
PrrAvailability availability(const PrrOrganization& org,
                             const FamilyTraits& t);

/// Eqs. (13)-(17): per-resource utilization percentages (0 when the PRR
/// has none of that resource, matching the paper's tables).
struct ResourceUtilization {
  double clb = 0;   ///< RU_CLB  (Eq. 13)
  double ff = 0;    ///< RU_FF   (Eq. 14)
  double lut = 0;   ///< RU_LUT  (Eq. 15)
  double dsp = 0;   ///< RU_DSP  (Eq. 16)
  double bram = 0;  ///< RU_BRAM (Eq. 17)
};
ResourceUtilization utilization(const PrmRequirements& req,
                                const PrrAvailability& avail,
                                const FamilyTraits& t);

/// Eqs. (2)-(5): the column organization a PRM needs at height `h`.
///
/// `single_dsp_column` selects the Eq. (4) special case for devices whose
/// fabric has only one DSP column (e.g. the Virtex-5 LX110T): W_DSP is
/// pinned to 1, so the DSP demand must fit within `h` rows of that single
/// column - if it cannot, this height is infeasible and nullopt is
/// returned. Heights of zero are invalid.
std::optional<PrrOrganization> organization_for_height(
    const PrmRequirements& req, const FamilyTraits& t, u32 h,
    bool single_dsp_column);

}  // namespace prcost
