// PRR-constrained placement with simulated-annealing refinement.
//
// Models the ISE PAR step the paper runs with the AREA_GROUP constraint:
// every mapped primitive must land on a site inside the PRR rectangle.
// Quality is measured by half-perimeter wirelength (HPWL); an annealer
// refines a greedy initial placement. A placement that cannot seat every
// primitive reports failure - the mechanism behind the paper's note that
// "MIPS failed place and route on the Virtex-6" when the PRR was shrunk to
// the post-PAR requirements.
//
// The result reports wirelength, utilization and a timing estimate; the
// per-cell sites stay internal to the placer, which keeps them in dense
// cell- and site-indexed tables.
#pragma once

#include <string>

#include "cost/prr_search.hpp"
#include "device/family_traits.hpp"
#include "netlist/netlist.hpp"
#include "par/packer.hpp"

namespace prcost {

/// Placement options.
struct PlaceOptions {
  u64 seed = 1;           ///< annealer RNG seed
  u32 anneal_moves = 0;   ///< 0 = auto (#cells * 32)
  double initial_temp = 4.0;
  bool skip_anneal = false;  ///< greedy-only (fast, for big sweeps)
};

/// Placement result.
struct PlaceResult {
  bool feasible = false;        ///< every primitive seated
  std::string failure_reason;   ///< set when !feasible
  u64 hpwl_initial = 0;         ///< greedy placement wirelength
  u64 hpwl_final = 0;           ///< post-anneal wirelength
  u64 placed_cells = 0;
  /// Site capacity and demand per resource class - the utilization PAR saw.
  u64 pair_sites = 0;           ///< slice LUT-FF pair sites in the PRR
  u64 pairs_needed = 0;
  u64 dsp_sites = 0;
  u64 dsps_needed = 0;
  u64 bram_sites = 0;
  u64 brams_needed = 0;
  /// Estimated critical-path delay (ns): logic depth * per-level delay +
  /// average net span * per-unit routing delay.
  double critical_path_ns = 0.0;
};

/// Place mapped netlist `nl` into the PRR described by `plan` (window
/// columns and height define the site grid) on `fabric`. `packed` is
/// pack_slices() of the same `nl`: its pair count and cell census are the
/// demand checked against the PRR's sites.
PlaceResult place_into_prr(const Netlist& nl, const PrrPlan& plan,
                           const Fabric& fabric, const PackResult& packed,
                           const PlaceOptions& options = {});

}  // namespace prcost
