// Fig. 1 search flow: find the PRR size/organization on a concrete device
// fabric that satisfies a PRM's (or a set of PRMs') requirements.
//
// The paper's flow iterates H starting at 1, derives W_CLB/W_DSP/W_BRAM
// via Eqs. (2)-(5), and checks whether W contiguous PR-capable columns
// with that composition exist on the fabric; Table V's results show the
// flow keeps searching past the first feasible height and returns the
// organization minimizing PRR_size = H*W (FIR on the LX110T lands at
// H=5, W=3 although H=4, W=4 is feasible). SearchObjective selects that
// criterion, the first-feasible variant, or minimum predicted bitstream.
#pragma once

#include <optional>
#include <vector>

#include "cost/bitstream_model.hpp"
#include "cost/prr_model.hpp"
#include "device/fabric.hpp"

namespace prcost {

/// What the search minimizes across feasible heights.
enum class SearchObjective {
  kMinArea,       ///< smallest PRR_size = H*W (ties: smaller H) - Table V
  kFirstFeasible, ///< smallest feasible H (the literal Fig. 1 loop)
  kMinBitstream,  ///< smallest predicted partial bitstream (Eq. 18)
};

struct SearchOptions {
  SearchObjective objective = SearchObjective::kMinArea;
  /// Cap on candidate heights; 0 means the device row count R.
  u32 max_height = 0;
};

/// A fully resolved PRR: organization + concrete fabric placement +
/// derived availability/utilization/bitstream predictions.
struct PrrPlan {
  PrrOrganization organization;
  ColumnWindow window;       ///< leftmost matching column window
  u32 first_row = 0;         ///< bottom row r (0-based; paper counts from 1)
  PrrAvailability available;
  ResourceUtilization ru;
  BitstreamEstimate bitstream;
};

/// Search one PRM. Returns nullopt when no feasible PRR exists on the
/// fabric at any height. The Eq. (4) single-DSP-column rule is applied
/// automatically when the fabric has exactly one DSP column. Results are
/// memoized in the process-wide plan cache (src/cost/plan_cache.hpp) when
/// it is enabled; the search is a pure function of its arguments, so the
/// memoized result is identical to a fresh search.
std::optional<PrrPlan> find_prr(const PrmRequirements& req,
                                const Fabric& fabric,
                                const SearchOptions& options = {});

/// Cache-bypassing variant of find_prr: always runs the full Fig. 1
/// height sweep. find_prr delegates here on a cache miss (or when the
/// plan cache is disabled).
std::optional<PrrPlan> find_prr_uncached(const PrmRequirements& req,
                                         const Fabric& fabric,
                                         const SearchOptions& options = {});

/// Every candidate organization for `req` at heights 1..rows, sorted by
/// `objective` but not window-placed (window/first_row are defaults): the
/// raw material Floorplanner::place tries against concrete fabric windows.
/// Unlike enumerate_prrs this does NOT pre-filter on exact-window
/// existence, because a candidate with no exact span can still be placed
/// through a superset window. Memoized via the plan cache; this is the
/// uncached compute.
std::vector<PrrPlan> placement_candidates_uncached(const PrmRequirements& req,
                                                   const Fabric& fabric,
                                                   SearchObjective objective);

/// Flatten the superset-window pass over `candidates` (the output of
/// placement_candidates_uncached for `req`): for each candidate, each
/// window width from the candidate's own width up to the fabric width,
/// and each superset window at that width (left-most first), emit the
/// widened plan - organization rewritten to the window's real column
/// composition, with availability/utilization/bitstream recomputed for
/// the surplus columns and `window` filled in. This is exactly the
/// sequence Floorplanner::place tries in its pass 2, precomputed; it is a
/// pure function of (fabric, req, candidate order) and is memoized via
/// the plan cache (widened_candidates).
std::vector<PrrPlan> widen_candidates(const std::vector<PrrPlan>& candidates,
                                      const PrmRequirements& req,
                                      const Fabric& fabric);

/// All feasible (H, organization) candidates for a PRM on a fabric, in
/// ascending H order - the raw material for fragmentation sweeps and DSE.
std::vector<PrrPlan> enumerate_prrs(const PrmRequirements& req,
                                    const Fabric& fabric, u32 max_height = 0);

}  // namespace prcost
