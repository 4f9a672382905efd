// Joint partition-schedule-floorplan optimizer.
//
// Co-plans the PRR floorplan and the task schedule for a fleet of PRMs on
// one device: PRMs are grouped into shared PRRs (element-wise-max
// requirements, the paper's shared-PRR rule), groups are placed on the
// occupancy BitGrid through the floorplanner, and a simulated annealer
// explores ILP-lite neighborhood moves (swap / relocate / resize /
// defrag-compact, src/opt/moves.hpp). Every candidate layout is costed
// end to end through the existing models - partial bitstream size
// (Eq. 18-23) via the plan's BitstreamEstimate, reconfiguration time via
// the DMA-ICAP controller, and fault-aware effective reconfiguration time
// via expected_retry_cost - never through ad-hoc heuristics.
//
// Determinism: proposals are drawn serially from one seeded Rng (with the
// Metropolis acceptance uniform pre-drawn per proposal), evaluated
// speculatively in parallel on independent layout copies, and accepted by
// scanning proposals in draw order. A fixed proposals_per_round makes the
// result independent of worker count and machine.
#pragma once

#include <array>
#include <vector>

#include "device/device_db.hpp"
#include "multitask/workload.hpp"
#include "opt/moves.hpp"
#include "reconfig/media.hpp"

namespace prcost::opt {

/// One optimization problem: a PRM fleet with a group assignment and a
/// task list on a concrete device, plus static-region rectangles the
/// floorplan must work around.
struct OptInstance {
  const Device* device = nullptr;
  std::vector<PrmInfo> prms;
  std::vector<u32> group_of;   ///< per PRM: group id in [0, group_count)
  u32 group_count = 0;
  std::vector<HwTask> tasks;   ///< task.prm indexes `prms`
  struct Rect {
    u32 first_col = 0, width = 0, first_row = 0, height = 0;
  };
  std::vector<Rect> reserved;  ///< static regions (pre-marked occupied)
};

/// Deterministic synthetic fleet at bench scale: `prm_count` PRMs with
/// jittered requirements (large/small mix as in the defrag ablation),
/// `groups` shared PRRs (0 = auto scale), 2 tasks per PRM, and a few
/// scattered static-region rectangles that force fragmentation.
OptInstance make_prm_fleet(const Device& device, u32 prm_count, u32 groups,
                           u64 seed);

struct OptimizeOptions {
  u64 seed = 1;
  u32 rounds = 48;                 ///< annealing rounds
  u32 proposals_per_round = 8;     ///< fixed: determinism vs worker count
  double fault_rate = 0.0;         ///< per-transfer corruption probability
  u32 max_retries = 3;
  StorageMedia media = StorageMedia::kDdrSdram;
  std::size_t workers = 0;         ///< parallel evaluation width (0 = auto)
};

/// Full end-to-end cost of one layout (all terms, plus the scalar).
struct CostBreakdown {
  double cost = 0;            ///< scalarized objective
  u64 placed_groups = 0;
  u64 rejected_prms = 0;      ///< PRMs whose group has no PRR
  u64 rejected_tasks = 0;     ///< tasks of rejected PRMs
  double makespan_s = 0;      ///< max(busiest PRR, serialized ICAP)
  double busy_max_s = 0;
  double icap_s = 0;          ///< total ICAP time across all reconfigs
  double relocation_s = 0;    ///< runtime-move ICAP time spent so far
};

/// One layout plus the runtime-move budget already spent on it.
struct PlanState {
  Floorplanner fp;
  double relocation_spent_s = 0;

  explicit PlanState(const Fabric& fabric) : fp(fabric) {}
};

/// Shared-PRR requirement of group `g` (element-wise max over members).
PrmRequirements group_requirements(const OptInstance& instance, u32 g);

/// The group specs (name + merged requirement) the moves operate on.
std::vector<GroupSpec> group_specs(const OptInstance& instance);

/// Greedy baseline: reserve the static rectangles, then place groups in
/// index order; whatever does not fit is rejected. This is the flow the
/// annealer must beat.
PlanState greedy_plan(const OptInstance& instance,
                      const OptimizeOptions& options);

/// Fresh end-to-end evaluation of `state`: bitstream bytes from each
/// placed plan's Eq. 18-23 estimate, reconfiguration time through the
/// DMA-ICAP controller on `options.media`, effective (fault-aware) time
/// via expected_retry_cost, analytic makespan over per-group busy times
/// and the serialized ICAP. No incremental bookkeeping: accepted-move
/// deltas always match a re-evaluation by construction.
CostBreakdown evaluate(const OptInstance& instance, const PlanState& state,
                       const OptimizeOptions& options);

struct OptimizeResult {
  CostBreakdown greedy;  ///< baseline cost
  CostBreakdown best;    ///< after annealing
  u64 proposals = 0;
  u64 accepted = 0;
  std::array<u64, kMoveKinds> accepted_by_kind{};
  double final_temperature = 0;
  FragmentationStats greedy_frag;
  FragmentationStats best_frag;
  std::vector<PlacedPrr> placements;  ///< the optimized layout
  /// Re-evaluating the final layout from scratch reproduced `best.cost`
  /// exactly (the accepted-move cost-delta acceptance check).
  bool cost_verified = false;

  /// Accepted moves of one kind.
  u64 accepted_of(MoveKind kind) const {
    return accepted_by_kind[static_cast<std::size_t>(kind)];
  }
  double greedy_rejection_rate(u64 prm_count) const {
    return prm_count == 0 ? 0.0
                          : static_cast<double>(greedy.rejected_prms) /
                                static_cast<double>(prm_count);
  }
  double best_rejection_rate(u64 prm_count) const {
    return prm_count == 0 ? 0.0
                          : static_cast<double>(best.rejected_prms) /
                                static_cast<double>(prm_count);
  }
};

class JointOptimizer {
 public:
  JointOptimizer(const OptInstance& instance, const OptimizeOptions& options);

  /// Run greedy + annealing and return both costs and the best layout.
  OptimizeResult run();

 private:
  const OptInstance* instance_;
  OptimizeOptions options_;
  std::vector<GroupSpec> groups_;
};

}  // namespace prcost::opt
