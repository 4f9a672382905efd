// Non-rectangular (L/T-shaped) PRR extension.
//
// Section IV closes with: "Higher RUs may be obtained by selecting
// non-rectangular PRRs (such as an L or T PRR shape), but chances of
// routing problems in the PRRs are increased." This module implements that
// option: a shaped PRR is a vertical stack of rectangular bands, each with
// its own height and column organization. Because partial bitstreams
// address the fabric per (row, column), the Eq. (18) accounting
// generalizes band-wise:
//
//   S = {IW + sum_bands h_b * (NCW_row(b) + NDW_BRAM(b)) + FW} * Bytes_word
//
// The canonical win: FIR on the LX110T needs 4 rows of the single DSP
// column but only ~163 CLBs; the rectangular optimum drags 2 CLB columns
// through 5 rows (PRR size 15), while an L-shape with a 4-row DSP+CLB band
// plus a 1-row CLB band covers the demand with fewer cells and a smaller
// bitstream.
#pragma once

#include <optional>
#include <vector>

#include "cost/bitstream_model.hpp"
#include "cost/prr_search.hpp"
#include "device/fabric.hpp"

namespace prcost {

/// One horizontal band of a shaped PRR.
struct PrrBand {
  PrrOrganization organization;  ///< band height + column organization
  ColumnWindow window;           ///< concrete columns on the fabric
  u32 first_row = 0;             ///< bottom fabric row of the band
};

/// A shaped PRR: one or more vertically stacked bands whose column windows
/// overlap pairwise with their vertical neighbour (connected shape).
struct ShapedPrr {
  std::vector<PrrBand> bands;

  /// Total fabric cells (the shaped analogue of Eq. 7).
  u64 size() const;
};

/// Band-wise availability (Eqs. 8-12 summed over bands).
PrrAvailability shaped_availability(const ShapedPrr& prr,
                                    const FamilyTraits& t);

/// Band-wise bitstream size (generalized Eq. 18).
BitstreamEstimate estimate_shaped_bitstream(const ShapedPrr& prr,
                                            const FamilyTraits& t);

/// A found shaped plan with derived metrics.
struct ShapedPrrPlan {
  ShapedPrr shape;
  PrrAvailability available;
  ResourceUtilization ru;
  BitstreamEstimate bitstream;
};

/// Search two-band (L-shaped) PRRs for `req` on `fabric`: band 1 carries
/// all DSP demand, band 2 all BRAM demand, CLB demand splits across both;
/// every (h1, h2, split) candidate is checked for a pair of vertically
/// overlapping fabric windows. Returns the candidate minimizing total
/// cells (ties: smaller bitstream), or nullopt. A rectangle is returned
/// only if no true two-band shape beats it (callers compare against
/// find_prr themselves).
std::optional<ShapedPrrPlan> find_l_shaped_prr(const PrmRequirements& req,
                                               const Fabric& fabric);

}  // namespace prcost
