// Full implementation flow: the prcost stand-in for "run ISE MAP + PAR
// with an AREA_GROUP constraint and read the post-PAR resource counts"
// (the paper's Table VI experiment).
#pragma once

#include "cost/prr_search.hpp"
#include "netlist/netlist.hpp"
#include "par/placer.hpp"
#include "synth/synthesizer.hpp"

namespace prcost {

/// Implementation options. The flow's only seed is `place.seed`.
struct ParOptions {
  PackOptions pack;
  PlaceOptions place;
};

/// Outcome of the implementation flow.
struct ParResult {
  bool routed = false;            ///< placement (and hence routing) succeeded
  std::string failure_reason;
  SynthesisReport post_par;       ///< post-implementation resource counts
  PackResult packing;
  PlaceResult placement;
  u64 cells_optimized = 0;        ///< extra cells removed vs synthesis
};

/// Implement a mapped design inside `plan` on `fabric`: run the
/// MAP/PAR-level optimization passes, re-pack slices, place into the PRR,
/// and report post-PAR requirements. `mapped` is the netlist from
/// synthesize() (taken by value; the flow rewrites it).
ParResult place_and_route(Netlist mapped, const PrrPlan& plan,
                          const Fabric& fabric, const ParOptions& options = {});

}  // namespace prcost
