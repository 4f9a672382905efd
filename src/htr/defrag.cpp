#include "htr/defrag.hpp"

#include "htr/relocation.hpp"

namespace prcost {

u64 largest_free_rect(const Floorplanner& floorplanner,
                      const Fabric& fabric) {
  (void)fabric;  // geometry lives in the grid now
  return floorplanner.grid().largest_clear_rect();
}

u64 plan_compaction(Floorplanner& floorplanner, const Fabric& fabric,
                    ConfigMemory* cm,
                    const std::function<void(const SlideMove&)>& sink) {
  u64 moves = 0;
  bool progress = true;
  while (progress) {
    progress = false;
    for (std::size_t i = 0; i < floorplanner.placements().size(); ++i) {
      const PlacedPrr placed = floorplanner.placements()[i];
      const ColumnDemand composition =
          fabric.window_composition(placed.plan.window);
      // Candidate targets: identical-sequence windows, left-to-right,
      // bottom-up; take the first strictly "earlier" free one.
      bool moved = false;
      const auto windows =
          fabric.superset_windows(composition, placed.plan.window.width);
      for (const ColumnWindow& window : *windows) {
        if (!windows_compatible(fabric, placed.plan.window, window)) continue;
        for (u32 row = 0;
             row + placed.plan.organization.h <= fabric.rows(); ++row) {
          const bool earlier =
              window.first_col < placed.first_col ||
              (window.first_col == placed.first_col &&
               row < placed.first_row);
          if (!earlier) break;  // rows ascend; later windows only get worse
          // Free after discounting the placement itself? The mover checks;
          // pre-filter cheaply for full freeness to skip obvious clashes
          // (self-overlapping slides are rejected by move_placement).
          if (!floorplanner.rect_free(window.first_col, window.width, row,
                                      placed.plan.organization.h)) {
            continue;
          }
          SlideMove slide;
          slide.index = i;
          slide.name = placed.name;
          slide.from = placed.plan.window;
          slide.from_row = placed.first_row;
          slide.to = window;
          slide.to_row = row;
          slide.organization = placed.plan.organization;
          if (cm != nullptr) {
            const RelocationResult moved_frames = relocate_region(
                *cm, placed.plan.window, placed.first_row, window, row,
                placed.plan.organization.h);
            if (!moved_frames.ok) continue;
            slide.frames_copied = moved_frames.frames_copied;
          }
          floorplanner.move_placement(i, window, row);
          ++moves;
          if (sink) sink(slide);
          moved = true;
          progress = true;
          break;
        }
        if (moved) break;
      }
    }
  }
  return moves;
}

DefragReport compact(Floorplanner& floorplanner, const Fabric& fabric,
                     ConfigMemory* cm) {
  DefragReport report;
  report.largest_free_before = largest_free_rect(floorplanner, fabric);
  report.moves = plan_compaction(
      floorplanner, fabric, cm,
      [&](const SlideMove& slide) { report.frames_copied += slide.frames_copied; });
  report.largest_free_after = largest_free_rect(floorplanner, fabric);
  return report;
}

}  // namespace prcost
