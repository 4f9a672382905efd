// Slice packing: the MAP-stage step that pairs LUTs and FFs into slice
// LUT-FF pairs.
//
// XST's synthesis report only pairs an FF with the LUT that directly
// drives it; ISE MAP additionally co-locates unrelated lone LUTs and lone
// FFs in the same slice pair when placement permits. That cross-packing is
// the dominant source of the paper's Table VI effect: post-PAR LUT_FF
// pair (and hence CLB) counts drop by up to ~32% while FF/DSP/BRAM counts
// stay put.
#pragma once

#include "netlist/netlist.hpp"
#include "synth/report.hpp"

namespace prcost {

/// Packing knobs.
struct PackOptions {
  /// Fraction of lone-LUT/lone-FF pairs MAP manages to co-locate; the
  /// remainder stays unpaired due to clock-enable/reset incompatibility
  /// and placement locality. 0.8 matches the savings regime of Table VI.
  double cross_pack_efficiency = 0.8;
};

/// Packing outcome.
struct PackResult {
  u64 direct_pairs = 0;   ///< FF packed with its driving LUT
  u64 cross_packed = 0;   ///< lone FF co-located with an unrelated lone LUT
  u64 lut_ff_pairs = 0;   ///< resulting slice pairs (LUT_FF_req post-MAP)
  /// Live-cell census of the packed netlist; placement and the post-PAR
  /// report read it instead of counting the cells again.
  NetlistStats stats;
};

/// Pack the live LUT/FF population of `nl`.
PackResult pack_slices(const Netlist& nl, const PackOptions& options = {});

}  // namespace prcost
