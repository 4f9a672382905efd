#include "opt/moves.hpp"

#include <algorithm>

#include "cost/plan_cache.hpp"
#include "htr/defrag.hpp"
#include "htr/relocation.hpp"
#include "obs/obs.hpp"

namespace prcost::opt {
namespace {

/// Group ids that currently have a placement, ascending.
std::vector<u32> placed_groups(const Floorplanner& fp,
                               std::span<const GroupSpec> groups) {
  std::vector<u32> placed;
  for (u32 g = 0; g < groups.size(); ++g) {
    if (placement_index_of(fp, groups[g].name) != std::size_t(-1)) {
      placed.push_back(g);
    }
  }
  return placed;
}

/// Re-place group `g` forcing the candidate organization at rotation
/// `offset` into the objective-sorted candidate list, exact windows only
/// (the rotation is what makes resize explore shapes `place` would not
/// pick first). Falls back to the normal placement search when the forced
/// candidate does not fit anywhere.
bool place_with_candidate(Floorplanner& fp, const Fabric& fabric,
                          const GroupSpec& group, u32 offset) {
  const std::shared_ptr<const std::vector<PrrPlan>> candidates =
      placement_candidates(group.req, fabric, group.objective);
  if (!candidates->empty()) {
    const std::size_t n = candidates->size();
    for (std::size_t i = 0; i < n; ++i) {
      const PrrPlan& candidate = (*candidates)[(offset + i) % n];
      const auto windows = fabric.exact_windows(candidate.organization.columns);
      for (const ColumnWindow& window : *windows) {
        for (u32 row = 0; row + candidate.organization.h <= fabric.rows();
             ++row) {
          if (!fp.rect_free(window.first_col, window.width, row,
                            candidate.organization.h)) {
            continue;
          }
          PrrPlan plan = candidate;
          plan.window = window;
          plan.first_row = row;
          return fp.place_plan(group.name, plan).has_value();
        }
      }
    }
  }
  return fp.place(group.name, group.req, group.objective).has_value();
}

}  // namespace

std::string_view move_kind_name(MoveKind kind) {
  switch (kind) {
    case MoveKind::kSwap: return "swap";
    case MoveKind::kRelocate: return "relocate";
    case MoveKind::kResize: return "resize";
    case MoveKind::kCompact: return "compact";
  }
  return "?";
}

std::size_t placement_index_of(const Floorplanner& fp,
                               const std::string& name) {
  const std::vector<PlacedPrr>& placements = fp.placements();
  for (std::size_t i = 0; i < placements.size(); ++i) {
    if (placements[i].name == name) return i;
  }
  return std::size_t(-1);
}

std::optional<Move> propose_move(const Layout& layout,
                                 std::span<const GroupSpec> groups, Rng& rng) {
  const Floorplanner& fp = layout.floorplanner();
  const std::vector<u32> placed = placed_groups(fp, groups);
  if (placed.empty() || groups.size() < 2) return std::nullopt;

  Move move;
  move.kind = static_cast<MoveKind>(rng.below(kMoveKinds));
  switch (move.kind) {
    case MoveKind::kSwap: {
      // One side is always placed; biasing the partner toward unplaced
      // groups is what turns swap into a rejection-rescue move.
      move.group_a = placed[rng.below(placed.size())];
      move.group_b = static_cast<u32>(rng.below(groups.size()));
      if (move.group_b == move.group_a) {
        move.group_b = static_cast<u32>((move.group_a + 1) % groups.size());
      }
      return move;
    }
    case MoveKind::kRelocate: {
      move.group_a = placed[rng.below(placed.size())];
      const std::size_t index =
          placement_index_of(fp, groups[move.group_a].name);
      const std::vector<RelocationTarget> targets =
          layout.relocation_targets(index, 16);
      if (targets.empty()) {
        move.kind = MoveKind::kCompact;  // nothing to slide to; defrag
        return move;
      }
      const RelocationTarget& target = targets[rng.below(targets.size())];
      move.target = target.window;
      move.target_row = target.first_row;
      return move;
    }
    case MoveKind::kResize: {
      move.group_a = placed[rng.below(placed.size())];
      move.candidate = static_cast<u32>(rng.below(64));
      return move;
    }
    case MoveKind::kCompact:
      return move;
  }
  return move;
}

MoveOutcome apply_move(const Layout& layout, std::span<const GroupSpec> groups,
                       const Move& move, const IcapModel& icap) {
  Floorplanner& fp = layout.floorplanner();
  const Fabric& fabric = layout.fabric();
  MoveOutcome outcome;
  switch (move.kind) {
    case MoveKind::kSwap: {
      const GroupSpec& a = groups[move.group_a];
      const GroupSpec& b = groups[move.group_b];
      const bool had_a = fp.remove(a.name);
      const bool had_b = fp.remove(b.name);
      if (!had_a && !had_b) return outcome;
      // Swapped placement order: b claims free space first.
      fp.place(b.name, b.req, b.objective);
      fp.place(a.name, a.req, a.objective);
      outcome.applied = true;
      return outcome;
    }
    case MoveKind::kRelocate: {
      const std::size_t index =
          placement_index_of(fp, groups[move.group_a].name);
      if (index == std::size_t(-1)) return outcome;
      const PrrOrganization org = fp.placements()[index].plan.organization;
      if (!fp.try_move_placement(index, move.target, move.target_row)) {
        return outcome;
      }
      outcome.applied = true;
      outcome.slides = 1;
      outcome.relocation_s =
          relocation_time(org, fabric.traits(), icap).total_s;
      return outcome;
    }
    case MoveKind::kResize: {
      const GroupSpec& group = groups[move.group_a];
      if (!fp.remove(group.name)) return outcome;
      place_with_candidate(fp, fabric, group, move.candidate);
      outcome.applied = true;
      return outcome;
    }
    case MoveKind::kCompact: {
      outcome.slides = plan_compaction(
          fp, fabric, nullptr, [&](const SlideMove& slide) {
            outcome.relocation_s +=
                relocation_time(slide.organization, fabric.traits(), icap)
                    .total_s;
          });
      outcome.applied = outcome.slides > 0;
      return outcome;
    }
  }
  return outcome;
}

}  // namespace prcost::opt
