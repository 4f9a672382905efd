#include "cost/floorplan.hpp"

#include "cost/plan_cache.hpp"
#include "util/error.hpp"

namespace prcost {

Floorplanner::Floorplanner(const Fabric& fabric)
    : fabric_(&fabric), grid_(fabric.rows(), fabric.num_columns()) {}

bool Floorplanner::rect_free(u32 first_col, u32 width, u32 first_row,
                             u32 height) const {
  return grid_.rect_free(first_col, width, first_row, height);
}

void Floorplanner::mark(u32 first_col, u32 width, u32 first_row, u32 height) {
  grid_.set_rect(first_col, width, first_row, height, true);
}

void Floorplanner::reserve(u32 first_col, u32 width, u32 first_row,
                           u32 height) {
  if (first_col + width > fabric_->num_columns() ||
      first_row + height > fabric_->rows()) {
    throw ContractError{"Floorplanner::reserve: rectangle exceeds fabric"};
  }
  mark(first_col, width, first_row, height);
}

std::optional<PlacedPrr> Floorplanner::place(const std::string& name,
                                             const PrmRequirements& req,
                                             SearchObjective objective) {
  // Candidate organizations over all heights, sorted by the objective.
  // Unlike enumerate_prrs this does NOT pre-filter on exact-window
  // existence: a candidate with no exact span can still be placed by the
  // superset pass below. The list is a pure function of (fabric, req,
  // objective), memoized in the plan cache and shared across threads.
  const std::shared_ptr<const std::vector<PrrPlan>> candidates =
      placement_candidates(req, *fabric_, objective);

  const auto try_place = [&](const PrrPlan& plan,
                             const ColumnWindow& window)
      -> std::optional<PlacedPrr> {
    for (u32 row = 0; row + plan.organization.h <= fabric_->rows(); ++row) {
      if (!rect_free(window.first_col, window.width, row,
                     plan.organization.h)) {
        continue;
      }
      mark(window.first_col, window.width, row, plan.organization.h);
      PlacedPrr placed;
      placed.name = name;
      placed.plan = plan;
      placed.plan.window = window;
      placed.plan.first_row = row;
      placed.first_col = window.first_col;
      placed.first_row = row;
      placements_.push_back(placed);
      return placed;
    }
    return std::nullopt;
  };

  // Pass 1: exact column composition (the paper's Fig. 1 semantics).
  for (const PrrPlan& candidate : *candidates) {
    const auto windows =
        fabric_->exact_windows(candidate.organization.columns);
    for (const ColumnWindow& window : *windows) {
      if (auto placed = try_place(candidate, window)) return placed;
    }
  }

  // Pass 2: superset windows - accept surplus PR-capable columns when no
  // exact span exists (or is free). The effective organization is the
  // window's real composition, so availability, utilization and bitstream
  // size all account for the surplus columns the PRR now drags along.
  if (plan_cache_enabled()) {
    // The whole widened sequence is pure in (fabric, req, objective);
    // take it precomputed from the plan cache and only test occupancy.
    const std::shared_ptr<const std::vector<PrrPlan>> widened =
        widened_candidates(req, *fabric_, objective);
    for (const PrrPlan& plan : *widened) {
      if (auto placed = try_place(plan, plan.window)) return placed;
    }
    return std::nullopt;
  }
  // Cache disabled: generate lazily so an early fit skips the rest of the
  // sweep. Must enumerate in the same order as widen_candidates.
  for (const PrrPlan& candidate : *candidates) {
    for (u32 width = candidate.organization.width();
         width <= fabric_->num_columns(); ++width) {
      const auto windows =
          fabric_->superset_windows(candidate.organization.columns, width);
      for (const ColumnWindow& window : *windows) {
        PrrPlan widened = candidate;
        widened.organization.columns = fabric_->window_composition(window);
        widened.available =
            availability(widened.organization, fabric_->traits());
        widened.bitstream =
            estimate_bitstream(widened.organization, fabric_->traits());
        widened.ru = utilization(req, widened.available, fabric_->traits());
        if (auto placed = try_place(widened, window)) return placed;
      }
    }
  }
  return std::nullopt;
}

std::optional<PlacedPrr> Floorplanner::place_plan(const std::string& name,
                                                  const PrrPlan& plan) {
  if (!rect_free(plan.window.first_col, plan.window.width, plan.first_row,
                 plan.organization.h)) {
    return std::nullopt;
  }
  mark(plan.window.first_col, plan.window.width, plan.first_row,
       plan.organization.h);
  PlacedPrr placed;
  placed.name = name;
  placed.plan = plan;
  placed.first_col = plan.window.first_col;
  placed.first_row = plan.first_row;
  placements_.push_back(placed);
  return placed;
}

bool Floorplanner::remove(const std::string& name) {
  for (std::size_t i = 0; i < placements_.size(); ++i) {
    if (placements_[i].name != name) continue;
    const PlacedPrr& placed = placements_[i];
    grid_.set_rect(placed.first_col, placed.plan.window.width,
                   placed.first_row, placed.plan.organization.h, false);
    placements_.erase(placements_.begin() +
                      static_cast<std::ptrdiff_t>(i));
    return true;
  }
  return false;
}

void Floorplanner::move_placement(std::size_t index,
                                  const ColumnWindow& window, u32 first_row) {
  if (index >= placements_.size()) {
    throw ContractError{"move_placement: index out of range"};
  }
  if (!try_move_placement(index, window, first_row)) {
    throw ContractError{"move_placement: target rectangle is not free"};
  }
}

bool Floorplanner::try_move_placement(std::size_t index,
                                      const ColumnWindow& window,
                                      u32 first_row) {
  if (index >= placements_.size()) return false;
  PlacedPrr& placed = placements_[index];
  const u32 h = placed.plan.organization.h;
  // Unmark the current rectangle, verify the target, then re-mark.
  grid_.set_rect(placed.first_col, placed.plan.window.width, placed.first_row,
                 h, false);
  if (!rect_free(window.first_col, window.width, first_row, h)) {
    grid_.set_rect(placed.first_col, placed.plan.window.width,
                   placed.first_row, h, true);
    return false;
  }
  grid_.set_rect(window.first_col, window.width, first_row, h, true);
  placed.plan.window = window;
  placed.plan.first_row = first_row;
  placed.first_col = window.first_col;
  placed.first_row = first_row;
  return true;
}

double Floorplanner::occupancy() const {
  const auto cells = static_cast<double>(u64{fabric_->rows()} *
                                         fabric_->num_columns());
  return cells == 0 ? 0.0
                    : static_cast<double>(grid_.count_set()) / cells;
}

}  // namespace prcost
