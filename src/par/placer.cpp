#include "par/placer.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "obs/obs.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace prcost {
namespace {

/// A physical site inside the PRR, in abstract grid coordinates: x is the
/// column index within the PRR window, y the resource index within the
/// column (0 = bottom).
struct Site {
  u32 x = 0;
  u32 y = 0;
  friend bool operator==(const Site&, const Site&) = default;
};

/// Which site class a cell occupies. LUTs, FFs and carry chains live in
/// distinct slot planes of the same CLB columns (a slice offers LUT
/// positions, FF positions and one carry chain independently).
enum class SiteClass : std::uint8_t { kLut, kFf, kCarry, kDsp, kBram, kNone };
inline constexpr int kPlaceableClasses = 5;

SiteClass site_class(const Cell& cell) {
  switch (cell.kind) {
    case CellKind::kLut: return SiteClass::kLut;
    case CellKind::kFf: return SiteClass::kFf;
    case CellKind::kCarry: return SiteClass::kCarry;
    case CellKind::kDsp48: return SiteClass::kDsp;
    case CellKind::kBram36:
    case CellKind::kBram18: return SiteClass::kBram;
    default:
      return SiteClass::kNone;  // ports/constants/macros are not placed
  }
}

/// Columns of one class inside the PRR window, with per-column capacity.
struct ClassColumns {
  std::vector<u32> xs;  ///< window-relative x of each column
  u64 per_column = 0;   ///< sites per column (over the whole PRR height)

  u64 total() const { return per_column * xs.size(); }
};

struct Grid {
  ClassColumns lut;
  ClassColumns ff;
  ClassColumns carry;
  ClassColumns dsp;
  ClassColumns bram;
  /// Window-relative x -> position of that column in its class's `xs`.
  /// Every window column belongs to exactly one column type, so one table
  /// serves all classes.
  std::vector<u32> slot;

  const ClassColumns& of(SiteClass cls) const {
    switch (cls) {
      case SiteClass::kLut: return lut;
      case SiteClass::kFf: return ff;
      case SiteClass::kCarry: return carry;
      case SiteClass::kDsp: return dsp;
      case SiteClass::kBram: return bram;
      case SiteClass::kNone: break;
    }
    throw ContractError{"Grid::of: unplaceable class"};
  }

  /// Flattened index of `s` among the sites of `cols`.
  u64 flat(const ClassColumns& cols, const Site& s) const {
    return slot[s.x] * cols.per_column + s.y;
  }
};

Grid make_grid(const PrrPlan& plan, const Fabric& fabric) {
  const FamilyTraits& t = fabric.traits();
  Grid grid;
  const u64 clbs_per_col = checked_mul(plan.organization.h, t.clb_col);
  grid.lut.per_column = checked_mul(clbs_per_col, t.lut_clb);
  grid.ff.per_column = checked_mul(clbs_per_col, t.ff_clb);
  grid.carry.per_column = checked_mul(clbs_per_col, 2);  // 1 CARRY4/slice
  grid.dsp.per_column = checked_mul(plan.organization.h, t.dsp_col);
  // BRAM slots at 18Kb granularity: each 36Kb site holds two 18Kb halves,
  // so BRAM18 cells do not overflow a PRR sized in 36Kb equivalents.
  grid.bram.per_column =
      checked_mul(checked_mul(plan.organization.h, t.bram_col), 2);
  grid.slot.resize(plan.window.width);
  for (u32 c = 0; c < plan.window.width; ++c) {
    switch (fabric.column(plan.window.first_col + c)) {
      case ColumnType::kClb:
        grid.slot[c] = narrow<u32>(grid.lut.xs.size());
        grid.lut.xs.push_back(c);
        grid.ff.xs.push_back(c);
        grid.carry.xs.push_back(c);
        break;
      case ColumnType::kDsp:
        grid.slot[c] = narrow<u32>(grid.dsp.xs.size());
        grid.dsp.xs.push_back(c);
        break;
      case ColumnType::kBram:
        grid.slot[c] = narrow<u32>(grid.bram.xs.size());
        grid.bram.xs.push_back(c);
        break;
      default:
        throw ContractError{"make_grid: PRR window contains IOB/CLK column"};
    }
  }
  return grid;
}

/// Flattened site index <-> Site for one class.
Site site_at(const ClassColumns& cols, u64 flat) {
  const u64 col = flat / cols.per_column;
  const u64 y = flat % cols.per_column;
  return Site{cols.xs[col], static_cast<u32>(y)};
}

/// Site of a cell that has none (ports, constants, dead cells). Window
/// x coordinates are column indices, so ~0 never names a real site.
inline constexpr u32 kUnplaced = ~0u;
/// Occupancy entry of an empty site.
inline constexpr u32 kEmpty = ~0u;
/// Annealer start temperature; the schedule cools geometrically from it to
/// 0.005 over the move budget.
inline constexpr double kInitialTemp = 4.0;

/// HPWL of `net` over its placed pins; `site_of` is indexed by cell.
u64 hpwl_of_net(const Net& net, const std::vector<Site>& site_of) {
  u32 min_x = ~0u, max_x = 0, min_y = ~0u, max_y = 0;
  u32 pins = 0;
  const auto visit = [&](CellId id) {
    const Site& s = site_of[index(id)];
    if (s.x == kUnplaced) return;
    min_x = std::min(min_x, s.x);
    max_x = std::max(max_x, s.x);
    min_y = std::min(min_y, s.y);
    max_y = std::max(max_y, s.y);
    ++pins;
  };
  if (net.driver != kNoCell) visit(net.driver);
  for (const CellId sink : net.sinks) visit(sink);
  if (pins < 2) return 0;
  // Columns are ~16 sites wide in routing terms; weight x accordingly so a
  // one-column hop costs what ~16 vertical site hops cost.
  return 16ull * (max_x - min_x) + (max_y - min_y);
}

/// Combinational logic depth (LUT/carry levels) - FFs, DSPs and BRAMs are
/// timing endpoints.
u64 logic_depth(const Netlist& nl, const std::vector<CellId>& live) {
  std::vector<u64> depth(nl.cell_count(), 0);
  // Cells are created in topological-ish order by the builders, but
  // feedback via replace_net means we need a relaxation; two sweeps are
  // enough in practice and we cap to avoid pathological loops.
  u64 max_depth = 0;
  for (int sweep = 0; sweep < 2; ++sweep) {
    for (const CellId id : live) {
      const Cell& cell = nl.cell(id);
      if (cell.kind != CellKind::kLut && cell.kind != CellKind::kCarry) {
        continue;
      }
      u64 d = 0;
      for (const NetId in : cell.inputs) {
        if (in == kNoNet) continue;
        const CellId drv = nl.net(in).driver;
        if (drv == kNoCell) continue;
        const Cell& drv_cell = nl.cell(drv);
        if (drv_cell.kind == CellKind::kLut ||
            drv_cell.kind == CellKind::kCarry) {
          d = std::max(d, depth[index(drv)] + 1);
        }
      }
      depth[index(id)] = std::max(depth[index(id)], d);
      max_depth = std::max(max_depth, depth[index(id)]);
    }
  }
  return max_depth;
}

}  // namespace

PlaceResult place_into_prr(const Netlist& nl, const PrrPlan& plan,
                           const Fabric& fabric, const PackResult& packed,
                           const PlaceOptions& options) {
  PRCOST_TRACE_SPAN("placement");
  PlaceResult result;
  const Grid grid = make_grid(plan, fabric);

  // --- demand vs capacity ------------------------------------------------
  const NetlistStats& stats = packed.stats;
  result.pair_sites = grid.lut.total();
  result.pairs_needed = packed.lut_ff_pairs;
  result.dsp_sites = grid.dsp.total();
  result.dsps_needed = stats.dsp48s;
  // bram_sites is reported in 36Kb equivalents (half the 18Kb slot count).
  result.bram_sites = grid.bram.total() / 2;
  result.brams_needed = stats.bram36s + ceil_div(stats.bram18s, 2);

  if (result.pairs_needed > result.pair_sites) {
    result.failure_reason = "not enough slice LUT-FF pair sites";
    return result;
  }
  if (stats.ffs > grid.ff.total()) {
    result.failure_reason = "not enough slice FF sites";
    return result;
  }
  if (result.dsps_needed > result.dsp_sites) {
    result.failure_reason = "not enough DSP sites";
    return result;
  }
  if (result.brams_needed > result.bram_sites) {
    result.failure_reason = "not enough BRAM sites";
    return result;
  }
  if (stats.luts > result.pair_sites) {
    result.failure_reason = "not enough LUT sites";
    return result;
  }
  if (stats.carries > grid.carry.total()) {
    result.failure_reason = "not enough carry-chain sites";
    return result;
  }

  // --- greedy initial placement ------------------------------------------
  // Dense per-cell tables: the site class and the site of every cell
  // (kUnplaced for ports, constants and dead cells, which HPWL skips).
  const std::vector<CellId> live = nl.live_cells();
  std::vector<SiteClass> class_of(nl.cell_count(), SiteClass::kNone);
  std::vector<Site> site_of(nl.cell_count(), Site{kUnplaced, kUnplaced});
  std::vector<CellId> placeable;
  // Round-robin across the class's columns so early cells spread out:
  // site i goes to column (i % #cols), slot (i / #cols).
  u64 cursors[kPlaceableClasses] = {};
  for (const CellId id : live) {
    const SiteClass cls = site_class(nl.cell(id));
    if (cls == SiteClass::kNone) continue;
    const ClassColumns& cols = grid.of(cls);
    u64& cursor = cursors[static_cast<int>(cls)];
    if (cursor >= cols.total()) {
      throw ContractError{"place_into_prr: site overflow after checks"};
    }
    const u64 i = cursor++;
    class_of[index(id)] = cls;
    site_of[index(id)] = Site{cols.xs[i % cols.xs.size()],
                              narrow<u32>(i / cols.xs.size())};
    placeable.push_back(id);
  }
  result.placed_cells = placeable.size();

  // --- wirelength ---------------------------------------------------------
  // net_hpwl caches every net's HPWL under the current placement.
  std::vector<u64> net_hpwl(nl.net_count(), 0);
  const auto total_hpwl = [&] {
    u64 sum = 0;
    for (u32 n = 0; n < nl.net_count(); ++n) {
      net_hpwl[n] = hpwl_of_net(nl.net(NetId{n}), site_of);
      sum += net_hpwl[n];
    }
    return sum;
  };
  result.hpwl_initial = total_hpwl();
  result.hpwl_final = result.hpwl_initial;

  // --- simulated annealing -------------------------------------------------
  // The move sequence is frozen: the RNG draw order (cell, target site,
  // acceptance draw only for uphill moves), the per-pin cost sums (a net
  // counts once per pin of a moved cell, so twice when it touches both
  // swapped cells) and the cooling schedule all decide which moves are
  // accepted, and with it hpwl_final and critical_path_ns.
  if (!options.skip_anneal && !placeable.empty()) {
    PRCOST_TRACE_SPAN("placement_anneal");
    Rng rng{options.seed};
    const u64 moves = options.anneal_moves != 0
                          ? options.anneal_moves
                          : placeable.size() * 32;
    double temp = kInitialTemp;
    const double cooling = moves > 1
        ? std::pow(0.005 / kInitialTemp, 1.0 / static_cast<double>(moves))
        : 1.0;

    // Occupancy per class: flattened site -> cell index, kEmpty if free.
    std::vector<u32> occupancy[kPlaceableClasses];
    for (int c = 0; c < kPlaceableClasses; ++c) {
      occupancy[c].assign(grid.of(static_cast<SiteClass>(c)).total(), kEmpty);
    }
    for (const CellId id : placeable) {
      const SiteClass cls = class_of[index(id)];
      const u64 at = grid.flat(grid.of(cls), site_of[index(id)]);
      occupancy[static_cast<int>(cls)][at] = index(id);
    }

    // Per-pin sums over a cell's nets: `cached` reads net_hpwl, `fresh`
    // recomputes under the trial placement and remembers the values so an
    // accepted move can write them back.
    std::vector<std::pair<u32, u64>> fresh_values;
    const auto cell_nets_hpwl = [&](u32 cell, auto&& net_cost) {
      u64 sum = 0;
      const Cell& c = nl.cell(CellId{cell});
      for (const NetId in : c.inputs) {
        if (in != kNoNet) sum += net_cost(in);
      }
      for (const NetId out : c.outputs) sum += net_cost(out);
      return sum;
    };
    const auto cached = [&](NetId n) { return net_hpwl[index(n)]; };
    const auto fresh = [&](NetId n) {
      const u64 h = hpwl_of_net(nl.net(n), site_of);
      fresh_values.emplace_back(index(n), h);
      return h;
    };

    u64 moves_accepted = 0;
    for (u64 m = 0; m < moves; ++m, temp *= cooling) {
      const u32 cell = index(placeable[rng.below(placeable.size())]);
      const SiteClass cls = class_of[cell];
      const ClassColumns& cols = grid.of(cls);
      const u64 target_flat = rng.below(cols.total());
      const Site target = site_at(cols, target_flat);
      const Site origin = site_of[cell];
      if (target == origin) continue;

      std::vector<u32>& occ = occupancy[static_cast<int>(cls)];
      const u32 other = occ[target_flat];
      const bool swap = other != kEmpty;

      u64 before = cell_nets_hpwl(cell, cached);
      if (swap) before += cell_nets_hpwl(other, cached);

      site_of[cell] = target;
      if (swap) site_of[other] = origin;

      fresh_values.clear();
      u64 after = cell_nets_hpwl(cell, fresh);
      if (swap) after += cell_nets_hpwl(other, fresh);

      const double delta = static_cast<double>(after) -
                           static_cast<double>(before);
      const bool accept =
          delta <= 0 || rng.uniform01() < std::exp(-delta / std::max(temp, 1e-9));
      if (accept) {
        ++moves_accepted;
        occ[target_flat] = cell;
        occ[grid.flat(cols, origin)] = other;  // kEmpty when not a swap
        for (const auto& [net, hpwl] : fresh_values) net_hpwl[net] = hpwl;
      } else {
        site_of[cell] = origin;
        if (swap) site_of[other] = target;
      }
    }
    result.hpwl_final = total_hpwl();
    // Tallied locally so the hot loop pays no atomics; one add per anneal.
    PRCOST_COUNT_N("place.moves_proposed", moves);
    PRCOST_COUNT_N("place.moves_accepted", moves_accepted);
  }
  PRCOST_COUNT("place.placements");
  PRCOST_COUNT_N("place.cells_placed", result.placed_cells);

  // --- timing estimate -----------------------------------------------------
  const u64 depth = logic_depth(nl, live);
  const double avg_net =
      result.placed_cells > 0
          ? static_cast<double>(result.hpwl_final) /
                static_cast<double>(std::max<u64>(1, nl.net_count()))
          : 0.0;
  constexpr double kLutDelayNs = 0.4;
  constexpr double kUnitRouteNs = 0.03;
  result.critical_path_ns =
      static_cast<double>(depth) * kLutDelayNs + avg_net * kUnitRouteNs * 4.0;

  result.feasible = true;
  return result;
}

}  // namespace prcost
