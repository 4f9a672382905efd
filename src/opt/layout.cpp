#include "opt/layout.hpp"

#include "htr/relocation.hpp"

namespace prcost::opt {

FragmentationStats Layout::fragmentation() const {
  FragmentationStats stats;
  const BitGrid& grid = fp_->grid();
  stats.total_cells = u64{grid.rows()} * grid.cols();
  stats.free_cells = stats.total_cells - grid.count_set();
  stats.largest_free_rect = grid.largest_clear_rect();
  if (stats.free_cells > 0) {
    stats.fragmentation = 1.0 - static_cast<double>(stats.largest_free_rect) /
                                    static_cast<double>(stats.free_cells);
  }
  return stats;
}

std::vector<RelocationTarget> Layout::relocation_targets(
    std::size_t index, std::size_t max_targets) const {
  std::vector<RelocationTarget> targets;
  if (index >= fp_->placements().size()) return targets;
  const PlacedPrr& placed = fp_->placements()[index];
  const ColumnDemand composition =
      fabric_->window_composition(placed.plan.window);
  const u32 h = placed.plan.organization.h;
  const auto windows =
      fabric_->superset_windows(composition, placed.plan.window.width);
  for (const ColumnWindow& window : *windows) {
    if (!windows_compatible(*fabric_, placed.plan.window, window)) continue;
    for (u32 row = 0; row + h <= fabric_->rows(); ++row) {
      if (window.first_col == placed.first_col && row == placed.first_row) {
        continue;  // the identity move
      }
      // Cheap full-freeness pre-filter; a self-overlapping slide would be
      // caught by try_move_placement at apply time anyway.
      if (!fp_->rect_free(window.first_col, window.width, row, h)) continue;
      targets.push_back(RelocationTarget{window, row});
      if (targets.size() >= max_targets) return targets;
    }
  }
  return targets;
}

bool Layout::consistent() const {
  const BitGrid& grid = fp_->grid();
  BitGrid rebuilt{grid.rows(), grid.cols()};
  for (const PlacedPrr& placed : fp_->placements()) {
    const u32 width = placed.plan.window.width;
    const u32 h = placed.plan.organization.h;
    if (placed.first_col + width > grid.cols() ||
        placed.first_row + h > grid.rows()) {
      return false;
    }
    // Overlap with an earlier placement?
    if (!rebuilt.rect_free(placed.first_col, width, placed.first_row, h)) {
      return false;
    }
    rebuilt.set_rect(placed.first_col, width, placed.first_row, h, true);
    // Every cell must also be marked in the live grid (reserved rectangles
    // may add more set cells, so subset - not equality - is the invariant).
    for (u32 c = 0; c < width; ++c) {
      for (u32 r = 0; r < h; ++r) {
        if (!grid.test(placed.first_col + c, placed.first_row + r)) {
          return false;
        }
      }
    }
  }
  return true;
}

}  // namespace prcost::opt
