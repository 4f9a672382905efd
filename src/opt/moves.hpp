// ILP-lite neighborhood moves for the joint optimizer.
//
// Four move kinds over an opt::Layout, split by when they cost anything:
//
//  planning moves (free - they rewrite the plan before anything is
//  configured):
//   kSwap    remove two groups' PRRs and re-place them in swapped order
//   kResize  re-place one group with a different candidate organization
//            (a different H x W trade-off from the Fig. 1 sweep)
//
//  runtime moves (priced through the HTR relocation-time model, i.e. the
//  ICAP readback + rewrite path of the authors' HTR work):
//   kRelocate  slide one live PRR to an HTR-compatible free rectangle
//   kCompact   run the htr defragmentation planner; every emitted slide
//              is costed individually
//
// Proposals are drawn deterministically from a seeded Rng against the
// current layout; applying a proposal to a *copy* of the layout is what
// the annealer's speculative evaluation does.
#pragma once

#include <optional>
#include <span>
#include <string>

#include "opt/layout.hpp"
#include "reconfig/icap.hpp"
#include "util/rng.hpp"

namespace prcost::opt {

enum class MoveKind { kSwap = 0, kRelocate = 1, kResize = 2, kCompact = 3 };
inline constexpr std::size_t kMoveKinds = 4;

/// One group the optimizer plans a PRR for: the shared-PRR requirement
/// (element-wise max over the group's PRMs, per the paper's shared-PRR
/// rule) plus the placement name used in the floorplanner.
struct GroupSpec {
  std::string name;
  PrmRequirements req;
  SearchObjective objective = SearchObjective::kMinArea;
};

/// A fully parameterized move proposal. All parameters are resolved at
/// proposal time against the proposing layout, so applying the same Move
/// to an identical copy is deterministic.
struct Move {
  MoveKind kind = MoveKind::kCompact;
  u32 group_a = 0;        ///< swap / relocate / resize subject
  u32 group_b = 0;        ///< swap partner
  ColumnWindow target;    ///< relocate destination window
  u32 target_row = 0;     ///< relocate destination row
  u32 candidate = 0;      ///< resize: candidate-list rotation offset
};

/// What applying a move did.
struct MoveOutcome {
  bool applied = false;        ///< layout changed (a no-op proposal is false)
  double relocation_s = 0.0;   ///< ICAP relocation time this move spends
  u64 slides = 0;              ///< placements moved (compact can be > 1)
};

/// Draw one move proposal against `layout`. Returns nullopt only when the
/// layout has no placements at all (then only a fresh placement pass makes
/// sense). `groups` is indexed by group id; placements are matched to
/// groups by name.
std::optional<Move> propose_move(const Layout& layout,
                                 std::span<const GroupSpec> groups, Rng& rng);

/// Apply `move` to `layout`. Planning moves may leave a group unplaced
/// (the caller's rescue pass re-places what it can and the cost model
/// penalizes the rest); runtime moves either succeed atomically or leave
/// the layout untouched. `icap` prices the runtime moves.
MoveOutcome apply_move(const Layout& layout, std::span<const GroupSpec> groups,
                       const Move& move, const IcapModel& icap);

/// Placement index of group `name` in `fp` (placements move around, so
/// this is resolved by name at apply time). Returns npos when unplaced.
std::size_t placement_index_of(const Floorplanner& fp,
                               const std::string& name);

}  // namespace prcost::opt
