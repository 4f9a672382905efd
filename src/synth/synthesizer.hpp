// Top-level synthesis entry point: the prcost stand-in for "run XST and
// read the .srp report".
#pragma once

#include <string>

#include "netlist/netlist.hpp"
#include "synth/mapper.hpp"
#include "synth/report.hpp"

namespace prcost {

/// Synthesis options.
struct SynthOptions {
  Family family = Family::kVirtex5;
};

/// Everything synthesize() produces.
struct SynthesisResult {
  Netlist netlist;         ///< optimized, technology-mapped netlist
  SynthesisReport report;  ///< the Table I input parameters
  MapStats map_stats;      ///< primitive expansion details
  u64 cells_optimized = 0; ///< pass effectiveness (cells removed/changed)
};

/// Optimize and map `design` for the target family, producing the
/// synthesis report the cost models consume. The input netlist is taken by
/// value (synthesis rewrites it).
SynthesisResult synthesize(Netlist design, const SynthOptions& options);

}  // namespace prcost
